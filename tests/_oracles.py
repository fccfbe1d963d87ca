"""Independent brute-force oracles used to check the structure-aware paths.

These deliberately avoid the library's own ascent code: projected gradient
with explicit gradients, exhaustive extreme-point enumeration, and a dense
rotation grid for the complex Hilbert radius.

The second half keeps the one-vector-at-a-time distance oracles, the flat
best_state_functional and the scalar boundary-seed bisection as they were
before the library moved to row forms; tests/test_rows.py checks the row
forms against them.  face_sup is the support-face value as it was computed
before best_state_functional became its one engine, from explicit reachable
sets; a massless block under outer 1 adds the disk of radius ||y_b||.
"""

import numpy as np

from bollobas_lab._search import golden_max
from bollobas_lab.norm_attainment import UnionNormingSet
from bollobas_lab.numerical_radius import (DiagonalNuStates, EmptyNuStates,
                                           ExplicitNuStates, HilbertNuStates)
from bollobas_lab.spaces import (INF, SumSpace, duality_map, lp_norm, pair,
                                 unit_phase)


def _normalize_rows(X, p):
    if p == INF:
        n = np.abs(X).max(axis=1)
    elif p == 1:
        n = np.abs(X).sum(axis=1)
    else:
        n = (np.abs(X) ** p).sum(axis=1) ** (1.0 / p)
    n[n == 0] = 1.0
    return X / n[:, None]


def sphere_multistart_norm(M, p, q, n_starts=256, iters=400, seed=0,
                           complex_field=False):
    """Projected-gradient ascent of ||Mx||_q over the lp sphere (smooth p, q
    handled by subgradient formulas), batched over many random starts."""
    rng = np.random.default_rng(seed)
    d = M.shape[1]
    X = rng.normal(size=(n_starts, d))
    if complex_field:
        X = X + 1j * rng.normal(size=(n_starts, d))
    X = _normalize_rows(X, p)
    steps = np.full(n_starts, 0.5)
    best = np.zeros(n_starts)
    for _ in range(iters):
        Y = X @ M.T
        ay = np.abs(Y)
        if q == INF:
            G = np.zeros_like(Y)
            idx = ay.argmax(axis=1)
            rows = np.arange(n_starts)
            G[rows, idx] = np.conj(np.sign(Y[rows, idx])) if not complex_field \
                else np.conj(Y[rows, idx] / np.maximum(ay[rows, idx], 1e-300))
        elif q == 1:
            G = np.conj(np.sign(Y)) if not complex_field else \
                np.conj(Y / np.maximum(ay, 1e-300)) * (ay > 0)
        else:
            nq = np.maximum((ay ** q).sum(axis=1) ** (1.0 / q), 1e-300)
            G = np.conj(Y) * ay ** (q - 2.0) / (nq ** (q - 1.0))[:, None]
            G[ay == 0] = 0.0
        grad = G @ np.conj(M)
        cur = _q_norms(X @ M.T, q)
        Xn = _normalize_rows(X + steps[:, None] * grad, p)
        vals = _q_norms(Xn @ M.T, q)
        use = vals > cur
        X = np.where(use[:, None], Xn, X)
        steps = np.where(use, steps, steps * 0.5)   # per-row backtracking
        steps = np.maximum(steps, 1e-12)
        best = np.maximum(best, np.maximum(vals, cur))
    if complex_field or p in (1.0, INF):
        return float(best.max())
    # constrained high-precision polish of the leading candidates
    from scipy.optimize import minimize
    order = np.argsort(best)[::-1][:6]
    out = float(best.max())
    for k in order:
        x0 = np.real(X[k])

        def neg(v):
            return -_q_norms((v @ M.T)[None, :], q)[0]

        def con(v):
            return _q_norms(v[None, :], p)[0] - 1.0

        res = minimize(neg, x0, method="SLSQP",
                       constraints=[{"type": "eq", "fun": con}],
                       options={"maxiter": 300, "ftol": 1e-14})
        if res.success:
            v = res.x / _q_norms(res.x[None, :], p)[0]
            out = max(out, _q_norms((v @ M.T)[None, :], q)[0])
    return out


def _q_norms(Y, q):
    a = np.abs(Y)
    if q == INF:
        return a.max(axis=1)
    if q == 1:
        return a.sum(axis=1)
    return (a ** q).sum(axis=1) ** (1.0 / q)


def sign_enumeration_norm(M, q):
    """Exact norm for a real sup-norm domain via the 2^d extreme points."""
    d = M.shape[1]
    idx = np.arange(1 << d, dtype=np.int64)
    signs = ((idx[:, None] >> np.arange(d)) & 1) * 2.0 - 1.0
    return float(_q_norms(signs @ M.T, q).max())


def l1_vertex_norm(M, q):
    """Exact norm for an l1 domain: the ball is the convex hull of the signed
    basis vectors."""
    return float(max(_q_norms(M.T, q)))


def sphere_multistart_nu_real_hilbert(M, n_starts=512, iters=400, seed=0):
    """max |x^T M x| over the Euclidean sphere by projected gradient."""
    rng = np.random.default_rng(seed)
    d = M.shape[0]
    X = rng.normal(size=(n_starts, d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    S = (M + M.T) / 2.0
    best = 0.0
    step = 0.4
    for it in range(iters):
        v = (X @ S.T * X).sum(axis=1)
        G = 2.0 * np.sign(v)[:, None] * (X @ S.T)
        Xn = X + step * G
        Xn /= np.linalg.norm(Xn, axis=1)[:, None]
        vn = (Xn @ S.T * Xn).sum(axis=1)
        use = np.abs(vn) > np.abs(v)
        X = np.where(use[:, None], Xn, X)
        best = max(best, float(np.abs(v).max()), float(np.abs(vn).max()))
        if it % 50 == 49:
            step *= 0.7
    return best


def theta_grid_nu_complex(M, n_theta=2048):
    """Dense rotation grid for the complex Hilbert numerical radius, with one
    local grid refinement around the argmax."""
    H = (M + np.conj(M.T)) / 2.0
    K = 1j * (M - np.conj(M.T)) / 2.0

    def top(t):
        return float(np.linalg.eigvalsh(np.cos(t) * H + np.sin(t) * K)[-1])

    ts = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    vals = [top(t) for t in ts]
    k = int(np.argmax(vals))
    width = 2 * np.pi / n_theta
    fine = np.linspace(ts[k] - width, ts[k] + width, 2001)
    return max(max(vals), max(top(t) for t in fine))


def l1_state_enumeration_nu(M):
    """Brute force over l1 states: x = +-e_i, x* any sign pattern fixing
    coordinate i; exact by vertex reduction (checked against it)."""
    d = M.shape[0]
    best = 0.0
    idx = np.arange(1 << d, dtype=np.int64)
    patterns = ((idx[:, None] >> np.arange(d)) & 1) * 2.0 - 1.0
    for i in range(d):
        col = M[:, i]
        keep = patterns[patterns[:, i] == 1.0]
        vals = np.abs(keep @ col)
        best = max(best, float(vals.max()))
    return best


def random_l1_states_nu(M, n_states=4000, seed=0):
    """Random mixed-support l1 states; returns the best value found (used to
    confirm mixtures never beat vertices)."""
    rng = np.random.default_rng(seed)
    d = M.shape[0]
    best = 0.0
    for _ in range(n_states):
        k = rng.integers(1, d + 1)
        supp = rng.choice(d, size=k, replace=False)
        t = rng.dirichlet(np.ones(k))
        s = rng.choice([-1.0, 1.0], size=k)
        x = np.zeros(d)
        x[supp] = t * s
        xs = rng.uniform(-1, 1, d)
        xs[supp] = s
        best = max(best, abs(xs @ (M @ x)))
    return best


def modulus_convexity_grid(p, eps, n=2000):
    """Fine two-dimensional grid value of the modulus of convexity."""
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    c, s = np.cos(t), np.sin(t)
    pts = np.stack([np.sign(c) * np.abs(c) ** (2.0 / p),
                    np.sign(s) * np.abs(s) ** (2.0 / p)])
    best = 0.0
    for i in range(n):
        u = pts[:, i][:, None]
        diff = (np.abs(u - pts) ** p).sum(axis=0) ** (1.0 / p)
        mid = (np.abs(u + pts) ** p / 2.0 ** p).sum(axis=0) ** (1.0 / p)
        ok = diff >= eps
        if ok.any():
            best = max(best, float(mid[ok].max()))
    return 1.0 - best


# ---------------------------------------------------------------------------
# scalar distance oracles, best state functional, boundary bisection
# ---------------------------------------------------------------------------

def support_distance(x, J, space):
    """Exact distance from x to the unit vectors supported on J."""
    x = np.asarray(x)
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[list(J)] = True
    p = space.p
    A = lp_norm(x[mask], p)
    off = lp_norm(x[~mask], p)
    if p == INF:
        return max(abs(1.0 - A), off)
    return (abs(1.0 - A) ** p + off ** p) ** (1.0 / p)


def subspace_sphere_distance(x, basis):
    """Exact Hilbert distance from x to the unit sphere of span(basis)."""
    P = basis @ (np.conj(basis.T) @ x)
    a = np.linalg.norm(P)
    res = np.linalg.norm(x - P)
    return float(np.sqrt(res ** 2 + (1.0 - a) ** 2))


def norming_distance(desc, x):
    """NormingSetDescriptor.distance, one vector at a time."""
    if isinstance(desc, UnionNormingSet):
        return min(norming_distance(p, x) for p in desc.parts)
    if desc.kind == "empty":
        return float("inf")
    if desc.kind == "support_constrained":
        return support_distance(x, desc.J, desc.space)
    if desc.kind == "coordinate_unimodular":
        mods = np.abs(np.asarray(x)[list(desc.J)])
        return float(max(0.0, (1.0 - mods).min()))
    if desc.kind == "explicit_list":
        return min(_point_distance(desc, x, np.asarray(v))
                   for v in desc.points)
    if desc.kind == "subspace":
        return subspace_sphere_distance(x, desc.basis)
    raise ValueError(f"unknown norming-set kind {desc.kind}")


def _point_distance(desc, x, v):
    space = desc.space
    mask = None if desc.free_mask is None else np.asarray(desc.free_mask)

    def dist_for(phi):
        d = x - phi * v
        if mask is not None:
            d = np.where(mask, 0.0, d)
        return space.norm(d)

    if not desc.phase_orbit:
        return dist_for(1.0)
    if not getattr(space, "is_complex", False):
        return min(dist_for(1.0), dist_for(-1.0))
    ths = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    coarse = min(ths, key=lambda t: dist_for(np.exp(1j * t)))
    t, _ = golden_max(lambda t: -dist_for(np.exp(1j * t)),
                      coarse - 0.2, coarse + 0.2, tol=1e-13)
    return dist_for(np.exp(1j * t))


def nu_pair_distance(desc, x, xstar):
    """NuStatesDescriptor.pair_distance of the flat kinds, one pair at a
    time."""
    if isinstance(desc, EmptyNuStates):
        return (float("inf"), float("inf"))
    if isinstance(desc, DiagonalNuStates):
        return _diagonal_pair_distance(desc, x, xstar)
    if isinstance(desc, HilbertNuStates):
        best = None
        for B in desc.bases:
            dx = subspace_sphere_distance(np.asarray(x), B)
            dxs = subspace_sphere_distance(np.asarray(xstar), B)
            if best is None or max(dx, dxs) < max(best[0], best[1]):
                best = (dx, dxs)
        return best if best is not None else (float("inf"), float("inf"))
    if isinstance(desc, ExplicitNuStates):
        return _explicit_pair_distance(desc, x, xstar)
    raise TypeError(f"no scalar oracle for {type(desc).__name__}")


def _diagonal_pair_distance(desc, x, xstar):
    p = desc.space.p
    best = None
    for _lam, J in desc.groups.items():
        if p == INF:
            dx = float(max(0.0, (1.0 - np.abs(np.asarray(x)[list(J)])).min()))
            dxs = support_distance(xstar, J, desc.space.dual())
        elif p == 1:
            dx = support_distance(x, J, desc.space)
            dxs = float(max(0.0,
                            (1.0 - np.abs(np.asarray(xstar)[list(J)])).min()))
        else:
            dx = support_distance(x, J, desc.space)
            dxs = support_distance(xstar, J, desc.space.dual())
        if best is None or max(dx, dxs) < max(best[0], best[1]):
            best = (dx, dxs)
    return best if best is not None else (float("inf"), float("inf"))


def _explicit_pair_distance(desc, x, xstar):
    dual = desc.space.dual()
    best = None

    def comp(phi, v, vs, fx, fxs):
        dx_vec = np.asarray(x) - phi * v
        dxs_vec = np.asarray(xstar) - np.conj(phi) * vs
        if fx is not None:
            dx_vec = np.where(fx, 0.0, dx_vec)
        if fxs is not None:
            dxs_vec = np.where(fxs, 0.0, dxs_vec)
        return desc.space.norm(dx_vec), dual.norm(dxs_vec)

    for sp, fx, fxs in zip(desc.pairs, desc.free_x_masks,
                           desc.free_xstar_masks):
        v, vs = sp.x, sp.xstar
        if not desc.phase_orbit:
            cands = [comp(1.0, v, vs, fx, fxs)]
        elif not desc.space.is_complex:
            cands = [comp(1.0, v, vs, fx, fxs), comp(-1.0, v, vs, fx, fxs)]
        else:
            ths = np.linspace(0, 2 * np.pi, 64, endpoint=False)
            coarse = min(ths, key=lambda t:
                         max(*comp(np.exp(1j * t), v, vs, fx, fxs)))
            t, _ = golden_max(
                lambda t: -max(*comp(np.exp(1j * t), v, vs, fx, fxs)),
                coarse - 0.2, coarse + 0.2, tol=1e-12)
            cands = [comp(np.exp(1j * t), v, vs, fx, fxs)]
        for dx, dxs in cands:
            if best is None or max(dx, dxs) < max(best[0], best[1]):
                best = (dx, dxs)
    return best if best is not None else (float("inf"), float("inf"))


def best_state_functional(y, x, space):
    """(value, x*) achieving face_sup on a flat space, one pair at a time."""
    p = space.p
    if 1.0 < p < INF:
        xs = duality_map(x, space)
        return abs(pair(xs, y)), xs
    if p == 1:
        supp = np.abs(x) > 0
        xs = np.zeros(space.dim, dtype=np.complex128 if space.is_complex
                      else np.float64)
        xs[supp] = np.conj(unit_phase(x[supp]))
        center = complex((xs[supp] * y[supp]).sum())
        psi = center / abs(center) if center != 0 else 1.0
        if not space.is_complex:
            psi = psi.real
        off = ~supp
        nz = off & (np.abs(y) > 0)
        xs[nz] = psi * np.conj(unit_phase(y[nz]))
        return abs(center) + float(np.abs(y[off]).sum()), xs.astype(space.dtype)
    peaks = np.nonzero(np.abs(np.abs(x) - 1.0) <= 1e-9)[0]
    vals = [abs(np.conj(unit_phase(x[n])) * y[n]) for n in peaks]
    k = peaks[int(np.argmax(vals))]
    xs = np.zeros(space.dim, dtype=space.dtype)
    xs[k] = np.conj(unit_phase(x[k]))
    return float(max(vals)), xs


def boundary_seeds(space, dist_of, eps, base_points, rng, max_dirs=48,
                   feas_tol=1e-12):
    """The probe's boundary seeds by one scalar bisection per (base,
    direction) pair, each point checked with dist_of(x) -> float."""
    seeds = []
    dirs = []
    d = space.dim
    idx = list(range(d)) if d <= max_dirs else \
        sorted(rng.choice(d, size=max_dirs, replace=False).tolist())
    for k in idx:
        e = np.zeros(d, dtype=space.dtype)
        e[k] = 1.0
        dirs.append(e)
        if not space.is_complex:
            dirs.append(-e)
    for base in base_points:
        base = np.asarray(base, dtype=space.dtype)
        for dvec in dirs:
            if dist_of(dvec) < eps - feas_tol:
                continue
            lo, hi = 0.0, 1.0
            ok = False
            for _ in range(40):
                t = (lo + hi) / 2.0
                cand = (1 - t) * base + t * dvec
                n = space.norm(cand)
                if n == 0:
                    lo = t
                    continue
                cand = cand / n
                if dist_of(cand) >= eps - feas_tol:
                    hi = t
                    ok = True
                else:
                    lo = t
            if ok:
                t = hi
                cand = (1 - t) * base + t * dvec
                cand = cand / space.norm(cand)
                if dist_of(cand) >= eps - feas_tol:
                    seeds.append(cand)
    return seeds


def _face_reachable(y, x, space):
    """{<x*, y> : x* supports x} on a flat space, as ("disk", center, radius)
    or ("points", values)."""
    p = space.p
    if 1.0 < p < INF:
        return ("disk", complex(pair(duality_map(x, space), y)), 0.0)
    if p == 1:
        supp = np.abs(x) > 0
        center = complex((np.conj(unit_phase(x[supp])) * y[supp]).sum())
        return ("disk", center, float(np.abs(y[~supp]).sum()))
    peaks = np.abs(np.abs(x) - 1.0) <= 1e-9
    vals = np.conj(unit_phase(x[peaks])) * y[peaks]
    return ("points", [complex(v) for v in vals])


def _set_sup(rep):
    if rep[0] == "disk":
        return abs(rep[1]) + rep[2]
    return max(abs(v) for v in rep[1]) if rep[1] else 0.0


def face_sup(y, x, space):
    """sup |<x*, y>| over x* supporting the unit vector x: a Minkowski sum
    of the blocks' reachable sets (outer p < inf), or the best peak block
    (outer inf)."""
    if not isinstance(space, SumSpace):
        return _set_sup(_face_reachable(y, x, space))
    blocks_x, blocks_y = space.split(x), space.split(y)
    norms = np.array([c.norm(b) for c, b in zip(space.components, blocks_x)])
    op = space.outer_p
    if op == INF:
        return max([_set_sup(_face_reachable(by, bx, c))
                    for c, bx, by, a in zip(space.components, blocks_x,
                                            blocks_y, norms)
                    if abs(a - 1.0) <= 1e-9], default=0.0)
    weights = np.ones_like(norms) if op == 1 else norms ** (op - 1.0)
    points, radius = [0j], 0.0
    for c, bx, by, a, w in zip(space.components, blocks_x, blocks_y, norms,
                               weights):
        if a == 0:
            if op == 1:
                radius += c.norm(by)
            continue
        rep = _face_reachable(by, bx / a, c)
        if rep[0] == "disk":
            points = [pt + w * rep[1] for pt in points]
            radius += w * rep[2]
        else:
            points = [pt + w * v for pt in points for v in rep[1]]
    return max(abs(pt) for pt in points) + radius
