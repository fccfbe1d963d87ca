"""Independent brute-force oracles used to check the structure-aware paths.

These deliberately avoid the library's own ascent code: projected gradient
with explicit gradients, exhaustive extreme-point enumeration, and a dense
rotation grid for the complex Hilbert radius.

modulus_convexity_slsqp is the grid and SLSQP route that the closed forms
of spaces.modulus_convexity replaced.  mp_norm is the lp norm to 50
digits, and largest_feasible_halvings the bisection of
spaces.largest_feasible as it ran before it stopped at convergence.

The second half keeps the one-vector-at-a-time bodies the library replaced
by row forms: the distance oracles (the flat kinds, and on sums
LiftedNormingSet, LiftNuStates, LiftedRank1NuStates and CornerNuStates,
each written out by hand and combining its parts by one lp_norm of their
profile, as the library does), the flat best_state_functional, the support
face of a sum (sum_face), the norm of a sum and its alignment maps
(sum_norm, dual_align_vec, primal_align_vec, recursive over the blocks),
and the scalar boundary-seed search: itp_root, one ITP root-finding step
at a time, under boundary_seeds and pullback, beside the 40- and 30-step
bisections they replaced (boundary_seeds_bisection, pullback_bisection).
tests/test_rows.py checks the row forms against them, to 1e-12 on flat
spaces and bit for bit on sums.
face_sup is the support-face value as it was computed before
best_state_functional became its one engine, from explicit reachable sets;
a massless block under outer 1 adds the disk of radius ||y_b||.

The last part keeps the probes' restart batches and the sum-space norm and
numerical-radius multistarts as they ran before the batched restart engine:
one start after another, with the scalar random_polish,
generic_power_ascent and ITP pullback, and on sums with the norms,
alignment maps, support face and attaining-pair distances of the
one-vector oracles above.  A polished start first draws its block, its
random_unit and then every trial direction of every round
(polish_block), and the scalar climb reads the block in order; a climb
that stops early leaves the rest of its block unused, and the next start
draws after the whole block.  A norm start ends at its first infeasible
step, pulling back toward the point before it when that point is feasible;
no anchor carries from one start to the next.  A budget of restarts runs
batch_sizes(restarts): batches of 16, the last one with the remainder
(batches of 8 in the sum-space norm and nu multistarts).
tests/test_restart_rows.py checks the row programs against them, and the
chunked draws of _search.polish_source against polish_block.

Next comes power_ascent_rows as it ran before it kept each row's image,
recomputing it every step; tests/test_dense_routes.py checks the library's
body against it bit for bit.

The end keeps the dense routes as they ran before they were stacked: the
norm multistart with each start run alone through the scalar
generic_power_ascent (multistart_norm), the Boyd multistart it replaced,
with one call per batch of the Boyd body, whose stop is the batch's and
not each row's (boyd_ascent_flat, boyd_multistart_norm), the complex
sup-norm phase grid as one meshgrid of every phase (phase_grid) and its
coordinate-wise golden polish (phase_enumerate), the whole sign cube with
its bits shifted out of the row indices (sign_chunks, sign_enumerate,
enumerated_norming_points), and the complex Hilbert rotation grid with one
eigvalsh per rotation of the whole circle.  tests/test_dense_routes.py
checks the library against them bit for bit, the multistart against the
Boyd one's value to 4 ulps, and the phase ascent that replaced the golden
polish against phase_enumerate's value to 4 ulps.

The very end keeps the G-CORNER repair-bounds claim as it ran before its
pairs were checked as rows: each trial drawn, validated, repaired and
measured before the next (corner_repair_bounds, with the scalar
corner_near_state and corner_repair).  tests/test_gallery.py checks the
claim against it.
"""

import mpmath
import numpy as np

from bollobas_lab._search import (best_of, dual_align_in, dual_align_rows,
                                  golden_max, matvec_rows, normalize_rows,
                                  primal_align_in, primal_align_rows,
                                  random_unit_rows, run_batches, vecmat_rows)
from bollobas_lab.errors import GeometryError
from bollobas_lab.norm_attainment import PHASE_GRID, UnionNormingSet
from bollobas_lab.norm_attainment import \
    subspace_sphere_distance as library_subspace_sphere_distance
from bollobas_lab import probe
from bollobas_lab.numerical_radius import (NU_TOL, THETA_GRID,
                                           DiagonalNuStates, EmptyNuStates,
                                           ExplicitNuStates, HilbertNuStates)
from bollobas_lab.operators import to_matrix
from bollobas_lab.probe import FEAS_TOL, ProbeBudget
from bollobas_lab.spaces import (INF, Space, StatePair, SumSpace, duality_map,
                                 lp_norm, lp_norm_rows, pair, random_unit,
                                 unit_phase)
from bollobas_lab.gallery import CornerNuStates, LiftedRank1NuStates
from bollobas_lab.sums import LiftNuStates


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


def _superellipse(t, p):
    """Map angles to the unit sphere of lp^2 (columns are points)."""
    c, s = np.cos(t), np.sin(t)
    return np.stack([np.sign(c) * np.abs(c) ** (2.0 / p),
                     np.sign(s) * np.abs(s) ** (2.0 / p)])


def modulus_convexity_slsqp(p, eps):
    """inf {1 - ||(u+v)/2||_p : u, v unit in lp^2, ||u-v||_p >= eps}, by a
    coarse feasible 256 x 256 grid over the two sphere angles refined by up
    to 12 SLSQP solves: the numeric route spaces.modulus_convexity took
    before its closed forms, kept as their reference."""
    from scipy.optimize import minimize

    grid = np.linspace(0.0, 2 * np.pi, 257)[:-1]
    pts = _superellipse(grid, p)                        # (2, n)
    diff = pts[:, :, None] - pts[:, None, :]            # (2, n, n)
    dist = (np.abs(diff) ** p).sum(axis=0) ** (1.0 / p)
    mid = (pts[:, :, None] + pts[:, None, :]) / 2.0
    midn = (np.abs(mid) ** p).sum(axis=0) ** (1.0 / p)
    feas = dist >= eps
    if not feas.any():
        return 1.0
    vals = np.where(feas, midn, -np.inf)
    flat = np.argsort(vals, axis=None)[::-1][:12]
    seeds = [(grid[i // len(grid)], grid[i % len(grid)]) for i in flat]

    def neg_mid(t):
        u = _superellipse(np.array([t[0]]), p)[:, 0]
        v = _superellipse(np.array([t[1]]), p)[:, 0]
        return -lp_norm((u + v) / 2.0, p)

    def gap(t):
        u = _superellipse(np.array([t[0]]), p)[:, 0]
        v = _superellipse(np.array([t[1]]), p)[:, 0]
        return lp_norm(u - v, p) - eps

    best = -max(vals.max(), 0.0)
    for s0 in seeds:
        res = minimize(neg_mid, np.array(s0), method="SLSQP",
                       constraints=[{"type": "ineq", "fun": gap}],
                       options={"maxiter": 400, "ftol": 1e-14})
        if res.success and gap(res.x) >= -1e-12:
            best = min(best, float(res.fun))
    # best == -(largest midpoint norm over the feasible set)
    return max(1.0 + best, 0.0)


def mp_norm(row, p):
    """The lp norm of row to 50 digits, an mpmath number."""
    with mpmath.workdps(50):
        mods = [abs(mpmath.mpc(complex(v).real, complex(v).imag))
                for v in row]
        if p == INF:
            return max(mods, default=mpmath.mpf(0))
        return mpmath.fsum(m ** p for m in mods) ** (1 / mpmath.mpf(p))


def largest_feasible_halvings(ok):
    """spaces.largest_feasible as it was: always 200 halvings of [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# scalar distance oracles, best state functional, boundary search
# ---------------------------------------------------------------------------

def support_distance(x, J, space):
    """Exact distance from x to the unit vectors supported on J."""
    x = np.asarray(x)
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[list(J)] = True
    p = space.p
    A = lp_norm(x[mask], p)
    off = lp_norm(x[~mask], p)
    return lp_norm(np.array([abs(1.0 - A), off]), p)


def subspace_sphere_distance(x, basis):
    """Exact Hilbert distance from x to the unit sphere of span(basis)."""
    P = basis @ (np.conj(basis.T) @ x)
    a = lp_norm(P, 2.0)
    res = lp_norm(x - P, 2.0)
    return lp_norm(np.array([res, 1.0 - a]), 2.0)


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
    if desc.kind == "lifted":
        return lifted_norming_distance(desc, x)
    raise ValueError(f"unknown norming-set kind {desc.kind}")


def lifted_norming_distance(desc, x):
    """LiftedNormingSet.distance, one vector at a time."""
    s = desc.space
    w, z = s.split(x)
    dw = desc.inner.distance(w)
    nz = s.components[1].norm(z)
    if s.outer_p == INF:
        nz = max(0.0, nz - 1.0)             # z free in the ball
    if dw == INF:
        return INF
    return lp_norm(np.array([dw, nz]), s.outer_p)


def _phase_times(phi, v):
    """phi * v with a complex phi taken entry by entry as Python multiplies
    two complex scalars."""
    if not np.iscomplexobj(phi):
        return phi * v
    return np.array([complex(phi) * complex(c) for c in v])


def _point_distance(desc, x, v):
    space = desc.space
    mask = None if desc.free_mask is None else np.asarray(desc.free_mask)

    def dist_for(phi):
        d = x - _phase_times(phi, v)
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


def _nearer(dx, dxs, best):
    """pair_distance's rule: (dx, dxs) replaces best when it is nearer on
    max(dx, dxs), then on the other component; the first wins full ties."""
    return best is None or \
        (max(dx, dxs), min(dx, dxs)) < (max(best), min(best))


def nu_pair_distance(desc, x, xstar):
    """NuStatesDescriptor.pair_distance of the flat kinds and of the sum
    descriptors, one pair at a time."""
    if isinstance(desc, EmptyNuStates):
        return (float("inf"), float("inf"))
    if isinstance(desc, DiagonalNuStates):
        return _diagonal_pair_distance(desc, x, xstar)
    if isinstance(desc, HilbertNuStates):
        best = None
        for B in desc.bases:
            dx = subspace_sphere_distance(np.asarray(x), B)
            dxs = subspace_sphere_distance(np.asarray(xstar), B)
            if _nearer(dx, dxs, best):
                best = (dx, dxs)
        return best if best is not None else (float("inf"), float("inf"))
    if isinstance(desc, ExplicitNuStates):
        return _explicit_pair_distance(desc, x, xstar)
    if isinstance(desc, LiftNuStates):
        return lift_nu_pair_distance(desc, x, xstar)
    if isinstance(desc, LiftedRank1NuStates):
        return lifted_rank1_pair_distance(desc, x, xstar)
    if isinstance(desc, CornerNuStates):
        return corner_pair_distance(desc, x, xstar)
    raise TypeError(f"no scalar oracle for {type(desc).__name__}")


def lift_nu_pair_distance(desc, x, xstar):
    """sums.LiftNuStates.pair_distance, one pair at a time."""
    s = desc.space
    x1, x2 = s.split(np.asarray(x))
    xs1, xs2 = s.split(np.asarray(xstar))
    # complex T: x1 lies in span(conj(V1)), x2* in span(conj(U1))
    V1x, U1xs = desc.V1, desc.U1
    if s.is_complex:
        V1x, U1xs = np.conj(V1x), np.conj(U1xs)
    d = library_subspace_sphere_distance
    if desc.outer_p == 1:
        dx = [d(x1, V1x), lp_norm(x2, 2.0)]
        dxs = [d(xs1, desc.V1), d(xs2, U1xs)]
    else:
        dx = [d(x1, V1x), d(x2, desc.U1)]
        dxs = [lp_norm(xs1, 2.0), d(xs2, U1xs)]
    return (lp_norm(np.array(dx), s.outer_p),
            lp_norm(np.array(dxs), s.dual().outer_p))


def lifted_rank1_pair_distance(desc, x, xstar):
    """gallery.LiftedRank1NuStates.pair_distance, one pair at a time."""
    s = desc.space
    xb, yb = s.split(np.asarray(x))
    xsb, ysb = s.split(np.asarray(xstar))
    best = None
    for sgn in (1.0, -1.0):
        for r in (1.0, -1.0):
            e1 = np.zeros(desc.dim)
            e1[0] = 1.0
            dx = lp_norm(np.array([lp_norm(xb - sgn * e1, 1),
                                   lp_norm(yb, 1)]), 1)
            dxs_x = max(0.0, abs(xsb[0] - sgn))
            dxs_y = float(np.abs(ysb - r).max())
            # the dual is a sup of blocks
            dxs = lp_norm(np.array([dxs_x, dxs_y]), INF)
            if _nearer(dx, dxs, best):
                best = (dx, dxs)
    return best


def corner_pair_distance(desc, x, xstar):
    """gallery.CornerNuStates.pair_distance, one pair at a time."""
    s = desc.space
    xb, yb = s.split(np.asarray(x))
    xsb, ysb = s.split(np.asarray(xstar))
    best = None
    e1 = np.zeros(desc.dim)
    e1[0] = 1.0
    for sgn in (1.0, -1.0):
        dxx = lp_norm(xb - sgn * e1, 2.0)
        dyy = lp_norm(yb, 2.0)
        dsx = lp_norm(xsb - sgn * e1, 2.0)
        dsy = lp_norm(ysb, 2.0)
        if desc.outer_p == 1:
            dx = [dxx, dyy]
            dxs = [dsx, max(0.0, dsy - 1.0)]   # y* free in the ball
        else:
            dx = [dxx, max(0.0, dyy - 1.0)]    # y free in the ball
            dxs = [dsx, dsy]
        dx = lp_norm(np.array(dx), desc.outer_p)
        dxs = lp_norm(np.array(dxs), s.dual().outer_p)
        if _nearer(dx, dxs, best):
            best = (dx, dxs)
    return best


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
        if _nearer(dx, dxs, best):
            best = (dx, dxs)
    return best if best is not None else (float("inf"), float("inf"))


def _explicit_pair_distance(desc, x, xstar):
    dual = desc.space.dual()
    best = None

    def comp(phi, v, vs, fx, fxs):
        dx_vec = np.asarray(x) - _phase_times(phi, v)
        dxs_vec = np.asarray(xstar) - _phase_times(np.conj(phi), vs)
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
            if _nearer(dx, dxs, best):
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


def sum_face(y, x, space):
    """(face_sup, assemble) on a sum, in one pass over the blocks of one
    pair: the support face as numerical_radius computed it one vector at a
    time, before its row form.

    Under outer p < inf the reachable set {<x*, y> : x* supports x} is a
    Minkowski sum: each massed block adds its weighted duality-map center,
    l1 disk or sup-norm peak set, and under outer 1 each massless block b
    adds a disk of radius ||y_b||.  Its modulus peaks at the best Minkowski
    point plus every radius; assemble() builds x* there, aligning every disk
    with the phase psi of that point.  Under outer inf the set is the hull
    of the peak blocks' sets, so the best peak block carries all of x*.
    """
    comps = space.components
    blocks_x, blocks_y = space.split(x), space.split(y)
    norms = np.array([c.norm(b) for c, b in zip(comps, blocks_x)])
    op = space.outer_p
    if op == INF:
        out = [np.zeros(c.dim, dtype=space.dtype) for c in comps]
        best, at = (0.0, None), None
        for i, (c, bx, by, a) in enumerate(zip(comps, blocks_x, blocks_y,
                                               norms)):
            if abs(a - 1.0) <= 1e-9:
                face = best_state_functional(by, bx, c)
                if at is None or face[0] > best[0]:
                    best, at = face, i
        if at is not None:
            out[at] = best[1]
        return best[0], lambda: space.join(out)

    weights = np.ones_like(norms) if op == 1 else norms ** (op - 1.0)
    points, radius = [0j], 0.0
    blocks = []             # (choices, build(choice, psi) -> block of x*)
    for c, bx, by, a, w in zip(comps, blocks_x, blocks_y, norms, weights):
        if a == 0:
            r = c.norm(by) if op == 1 else 0.0
            radius += r
            blocks.append((1, _free_block(c, by, r, space.dtype)))
            continue
        xb = bx / a
        if 1.0 < c.p < INF:
            f = duality_map(xb, c)
            center = w * complex((f * by).sum())
            points = [pt + center for pt in points]
            blocks.append((1, lambda j, psi, w=w, f=f: w * f))
        elif c.p == 1:
            supp = np.abs(xb) > 0
            phases = np.conj(unit_phase(xb[supp]))
            center = w * complex((phases * by[supp]).sum())
            points = [pt + center for pt in points]
            radius += w * float(np.abs(by[~supp]).sum())
            blocks.append((1, _disk_block(supp, phases, by, w, space.dtype)))
        else:
            peaks = np.nonzero(np.abs(np.abs(xb) - 1.0) <= 1e-9)[0]
            phases = np.conj(unit_phase(xb[peaks]))
            vals = [w * complex(v) for v in phases * by[peaks]]
            if len(points) * max(len(vals), 1) > 4096:
                raise GeometryError(
                    "support-face combination too large to stay exact")
            points = [pt + v for pt in points for v in vals]
            blocks.append((len(vals), _peak_block(c.dim, peaks, phases, w,
                                                  space.dtype)))
    mods = [abs(pt) for pt in points]
    top = max(mods)

    def assemble():
        k = mods.index(top)
        pt = complex(points[k])
        # divided part by part, as the flat l1 face divides its center
        psi = complex(pt.real / top, pt.imag / top) if top > 0 else 1.0
        if not space.is_complex:
            psi = psi.real
        out = []
        for choices, build in reversed(blocks):   # the last block varies fastest
            k, j = divmod(k, choices)
            out.append(build(j, psi))
        return space.join(out[::-1])
    return top + radius, assemble


def _free_block(c, by, r, dtype):
    """A massless block: psi times the functional norming y_b, or zero."""
    def build(j, psi):
        if r > 0:
            return psi * dual_align_vec(by, c)
        return np.zeros(c.dim, dtype=dtype)
    return build


def _disk_block(supp, phases, by, w, dtype):
    """An l1 block: the phases of x on its support, psi conj(phase y) off
    it, weighted."""
    def build(j, psi):
        g = np.zeros(len(by), dtype=dtype)
        g[supp] = phases
        free = ~supp & (np.abs(by) > 0)
        g[free] = psi * np.conj(unit_phase(by[free]))
        return w * g
    return build


def _peak_block(dim, peaks, phases, w, dtype):
    """A sup-norm block: the chosen peak's phase, weighted."""
    def build(j, psi):
        g = np.zeros(dim, dtype=dtype)
        g[peaks[j]] = w * phases[j]
        return g
    return build


def state_functional(y, x, space):
    """(face value, x*) one pair at a time: sum_face on a sum, the flat
    best_state_functional otherwise."""
    if isinstance(space, SumSpace):
        value, assemble = sum_face(y, x, space)
        return value, assemble()
    return best_state_functional(y, x, space)


def space_norm(v, space):
    """SumSpace.norm one vector at a time: the outer norm of the block
    norms, recursive over the blocks; Space.norm on a flat space."""
    if not isinstance(space, SumSpace):
        return space.norm(v)
    profile = np.array([space_norm(b, c)
                        for c, b in zip(space.components, space.split(v))])
    return lp_norm(profile, space.outer_p)


def dual_align_vec(y, space):
    """_search.dual_align_vec one vector at a time: u with ||u||_dual = 1
    and <u, y> = ||y||, recursive over the blocks of a sum."""
    if isinstance(space, SumSpace):
        blocks = space.split(y)
        profile = np.array([space_norm(b, c)
                            for c, b in zip(space.components, blocks)])
        w = dual_align_rows(profile[None, :].astype(float), space.outer_p)[0]
        out = []
        for c, b, wi in zip(space.components, blocks, w):
            if space_norm(b, c) == 0 or wi == 0:
                out.append(np.zeros(c.dim, dtype=c.dtype))
            else:
                out.append(wi.real * dual_align_vec(b, c))
        return space.join(out)
    return dual_align_rows(y[None, :], space.p)[0]


def primal_align_vec(w, space):
    """_search.primal_align_vec one vector at a time: unit x maximizing
    Re <w, x>, recursive over the blocks of a sum."""
    if isinstance(space, SumSpace):
        blocks = space.split(w)
        aligned = [primal_align_vec(b, c)
                   for c, b in zip(space.components, blocks)]
        gains = np.array([max(np.real((b * a).sum()), 0.0)
                          for b, a in zip(blocks, aligned)])
        t = primal_align_rows(gains[None, :].astype(float), space.outer_p)[0]
        return space.join([ti.real * a for ti, a in zip(t, aligned)])
    return primal_align_rows(w[None, :], space.p)[0]


def itp_root(x0, x1, d0, d1, eps, bits, space, dist_of):
    """probe._itp_rows on one segment, one scalar step at a time: ITP on
    g(t) = dist_of(C(t)) - (eps - FEAS_TOL) along the normalized segment
    C(t) from x0 (t = 0, distance d0, g < 0) toward x1 (t = 1, distance d1,
    g >= 0), with kappa1 = 0.2, kappa2 = 2, n0 = 1, stopping at a bracket of
    2^-bits or at a feasible step within FEAS_TOL of the threshold.  Yields
    (point, distance) for each feasible step; a zero point counts as at
    distance 0."""
    thr = eps - FEAS_TOL
    lo, hi, g_lo, g_hi = 0.0, 1.0, d0 - thr, d1 - thr
    for j in range(bits + 1):
        if hi - lo <= 2.0 ** -bits:
            return
        half = (lo + hi) / 2
        x_f = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        sigma = np.sign(half - x_f)
        delta = 0.2 * (hi - lo) * (hi - lo)
        x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
        r = 2.0 ** -j - (hi - lo) / 2
        t = x_t if abs(x_t - half) <= r else half - sigma * r
        cand = (1 - t) * x0 + t * x1
        n = space_norm(cand, space)
        g = -thr
        if n != 0:
            cand = cand / n
            d = dist_of(cand)
            g = d - thr
        if g < 0:
            lo, g_lo = t, g
            continue
        yield cand, d
        hi, g_hi = t, g
        if g <= FEAS_TOL:
            return


def _directions(space, rng, max_dirs):
    """The probe's boundary-seed directions: +-e_k (e_k on complex spaces)
    for every coordinate k, or for max_dirs drawn from rng above max_dirs
    dimensions."""
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
    return dirs


def boundary_seeds(space, dist_of, eps, base_points, rng, max_dirs=48):
    """The probe's boundary seeds by one scalar ITP search (itp_root) per
    (infeasible base, feasible direction) pair, to a bracket of 2^-40: the
    last feasible point of each search that reached one, each point checked
    with dist_of(x) -> float."""
    seeds = []
    dirs = _directions(space, rng, max_dirs)
    thr = eps - FEAS_TOL
    for base in base_points:
        base = np.asarray(base, dtype=space.dtype)
        d0 = dist_of(base)
        if d0 >= thr:
            continue
        for dvec in dirs:
            d1 = dist_of(dvec)
            if d1 < thr:
                continue
            last = None
            for last, _d in itp_root(base, dvec, d0, d1, eps, 40, space,
                                     dist_of):
                pass
            if last is not None:
                seeds.append(last)
    return seeds


def boundary_seeds_bisection(space, dist_of, eps, base_points, rng,
                             max_dirs=48, feas_tol=1e-12):
    """The probe's boundary seeds as they were found before the ITP search:
    one scalar 40-step bisection per (base, direction) pair, each point
    checked with dist_of(x) -> float."""
    seeds = []
    dirs = _directions(space, rng, max_dirs)
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
                n = space_norm(cand, space)
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
                cand = cand / space_norm(cand, space)
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
        if a < 2.0 ** -1022:     # too coarse to divide by: scale up first
            bx = bx * 2.0 ** 600
            a = c.norm(bx)
        rep = _face_reachable(by, bx / a, c)
        if rep[0] == "disk":
            points = [pt + w * rep[1] for pt in points]
            radius += w * rep[2]
        else:
            points = [pt + w * v for pt in points for v in rep[1]]
    return max(abs(pt) for pt in points) + radius


# ---------------------------------------------------------------------------
# the probes' restart batches, one start at a time
# ---------------------------------------------------------------------------

def direction_block(rng, space, rounds, tries):
    """rounds lists of tries trial directions, each drawn as one real and,
    on a complex field, one imaginary Gaussian vector."""
    return [[rng.normal(size=space.dim) +
             (1j * rng.normal(size=space.dim) if space.is_complex else 0.0)
             for _ in range(tries)] for _ in range(rounds)]


def polish_block(rng, space, rounds, tries):
    """A polished start's draws: its random_unit, then its direction
    block."""
    x = random_unit(space, rng)
    return x, direction_block(rng, space, rounds, tries)


def random_polish(x, value_of, directions, space, step, min_step):
    """Random-direction hill climb on the unit sphere, one trial at a time:
    round r tries step * directions[r][t] for each t in turn; returns
    (value, x, aux)."""
    val, aux = value_of(x)
    for trials in directions:
        moved = False
        for d in trials:
            cand = x + step * d
            n = space_norm(cand, space)
            if n == 0:
                continue
            cand = cand / n
            v, a = value_of(cand)
            if v > val + 1e-14:
                x, val, aux, moved = cand, v, a, True
        if not moved:
            step *= 0.5
            if step < min_step:
                break
    return val, x, aux


def generic_power_ascent(M, dom, cod, x0, iters=300):
    """Monotone norm ascent on one vector, stopping at the first step that
    gains at most 1e-13; returns (value, x)."""
    n = space_norm(x0, dom)
    x = x0 / (n if n > 0 else 1.0)
    val = space_norm(M @ x, cod)
    for _ in range(iters):
        y = M @ x
        u = dual_align_vec(y, cod)
        w = u @ M
        xn = primal_align_vec(w, dom)
        vn = space_norm(M @ xn, cod)
        if vn <= val + 1e-13:
            if vn > val:
                x, val = xn, vn
            break
        x, val = xn, vn
    return float(val), x


def multistart_nu(M, space, restarts, iters, seed):
    """The search of numerical_radius._multistart_nu with its 8 polishes
    run one after another, each on its own block: (value, x, None)."""
    def value_of(x):
        return state_functional(M @ x, x, space)[0], None

    def polished_start(rng):
        x, D = polish_block(rng, space, iters, 4)
        return random_polish(x, value_of, D, space, step=0.5, min_step=1e-9)

    sizes = batch_sizes(restarts, 8)

    def batch(rng):
        return best_of(polished_start(rng) for _ in range(sizes.pop(0)))

    return run_batches(seed, len(sizes), batch)


def sum_space_norm(M, dom, cod, restarts, iters, seed):
    """norm_attainment._sum_space_norm with the starts of each batch of 8
    (and of the remainder) run one after another: (value, x)."""
    sizes = batch_sizes(restarts, 8)

    def batch(rng):
        return best_of(generic_power_ascent(M, dom, cod, random_unit(dom, rng),
                                            iters=iters)
                       for _ in range(sizes.pop(0)))

    return run_batches(seed, len(sizes), batch)


def pullback(value_of, dist_of, x_hi, x_lo, d_hi, d_lo, eps, space):
    """One scalar ITP search (itp_root) along the normalized segment from an
    infeasible point x_hi toward a feasible anchor x_lo, d_hi and d_lo their
    distances, to a bracket of 2^-30: the best feasible (value, distance,
    point) it reached, the earliest on ties, or None."""
    best = None
    for cand, d in itp_root(x_hi, x_lo, d_hi, d_lo, eps, 30, space,
                            dist_of):
        best = best_of([best, (value_of(cand), d, cand)])
    return best


def pullback_bisection(value_of, dist_of, x_hi, x_lo, eps, space):
    """The pullback as it ran before the ITP search: a 30-step binary
    search along the normalized segment between a feasible anchor x_lo and
    an infeasible point x_hi: the best feasible (value, distance, point)
    found, or None."""
    best = None
    lo, hi = 0.0, 1.0
    for _ in range(30):
        t = (lo + hi) / 2.0
        cand = (1 - t) * x_hi + t * x_lo
        n = space_norm(cand, space)
        if n == 0:
            lo, hi = t, hi
            continue
        cand = cand / n
        d = dist_of(cand)
        if d >= eps - FEAS_TOL:
            best = best_of([best, (value_of(cand), d, cand)])
            hi = t
        else:
            lo = t
    return best


def batch_sizes(restarts, size=16):
    """The starts of each restart batch, written out: full batches of size
    while at least size remain, then one batch of what is left."""
    sizes = []
    while restarts > 0:
        sizes.append(min(size, restarts))
        restarts -= size
    return sizes


def eta_probe_norm(T, eps, budget=None, seed=0, extra_seeds=()):
    """probe.eta_probe_norm with its restart batch run start by start."""
    budget = budget or ProbeBudget()
    _nr, desc = probe._resolve_norm(T)
    space, cod, M = T.domain, T.codomain, to_matrix(T)

    def value_of(x):
        return space_norm(M @ x, cod)

    candidates = []

    def consider(x):
        d = desc.distance(x)
        if d >= eps - FEAS_TOL:
            return (value_of(x), d, x)
        return None

    for s in probe._diag_norm_seeds(T, eps):
        candidates.append(consider(s))
    for s in extra_seeds:
        candidates.append(consider(np.asarray(s, dtype=space.dtype)))
    seed_rng = np.random.Generator(np.random.PCG64(seed))
    if not desc.is_empty and not isinstance(space, SumSpace):
        try:
            bases = desc.sample(seed_rng, 2)
        except Exception:
            bases = []
        for s in probe._boundary_seeds(space, desc.distance_rows, eps,
                                       bases, seed_rng):
            candidates.append(consider(s))

    iters = max(10, budget.iters // 100)

    sizes = batch_sizes(budget.restarts)

    def batch(rng):
        best = None
        for _ in range(sizes.pop(0)):
            anchor = None
            x = random_unit(space, rng)
            c = consider(x)
            if c is not None:
                best, anchor = best_of([best, c]), c
            for _ in range(iters):
                _v, xn = generic_power_ascent(M, space, cod, x, iters=3)
                if np.allclose(xn, x):
                    break
                x = xn
                c = consider(x)
                if c is not None:
                    best, anchor = best_of([best, c]), c
                    continue
                if anchor is not None:
                    best = best_of([best, pullback(
                        value_of, desc.distance, x, anchor[2],
                        desc.distance(x), anchor[1], eps, space)])
                break
        return best

    candidates.append(run_batches(seed, len(sizes), batch))
    return probe._finalize("norm", eps, candidates, seed, budget)


def eta_probe_nu(T, eps, budget=None, seed=0, nu_result=None, attaining=None,
                 extra_seeds=()):
    """probe.eta_probe_nu with its restart batch run start by start."""
    budget = budget or ProbeBudget()
    _nr, desc = probe._resolve_nu(T, nu_result, attaining)
    space, M = T.domain, to_matrix(T)

    def pair_value(x, xs):
        return abs(pair(xs, M @ x))

    def state_for(x):
        return state_functional(M @ x, x, space)[1]

    candidates = []

    def consider_pair(x, xs):
        dx, dxs = nu_pair_distance(desc, x, xs)
        d = max(dx, dxs)
        if d >= eps - FEAS_TOL:
            return (pair_value(x, xs), d, StatePair(x, xs, space))
        return None

    for s in extra_seeds:
        if isinstance(s, StatePair):
            candidates.append(consider_pair(s.x, s.xstar))
        elif isinstance(s, tuple) and len(s) == 2:
            candidates.append(consider_pair(np.asarray(s[0]),
                                            np.asarray(s[1])))
        else:
            x = np.asarray(s)
            candidates.append(consider_pair(x, state_for(x)))
    for s in probe._diag_nu_seeds(T, eps):
        candidates.append(consider_pair(*s))
    seed_rng = np.random.Generator(np.random.PCG64(seed))
    if not desc.is_empty and not isinstance(space, SumSpace):
        try:
            bases = [sp.x for sp in desc.sample(seed_rng, 2)]
        except Exception:
            bases = []
        dist_rows = probe._state_dist_rows(desc, M, space)
        for s in probe._boundary_seeds(space, dist_rows, eps, bases,
                                       seed_rng):
            candidates.append(consider_pair(s, state_for(s)))

    iters = max(10, budget.iters // 100)

    def state_value(x):
        xs = state_for(x)
        return pair_value(x, xs), xs

    def polished_start(rng):
        x, D = polish_block(rng, space, iters, 3)
        _v, x, xs = random_polish(x, state_value, D, space, step=0.4,
                                  min_step=1e-7)
        return consider_pair(x, xs)

    sizes = batch_sizes(budget.restarts)

    def batch(rng):
        return best_of(polished_start(rng) for _ in range(sizes.pop(0)))

    candidates.append(run_batches(seed, len(sizes), batch))
    return probe._finalize("nu", eps, candidates, seed, budget)


# ---------------------------------------------------------------------------
# the norm ascent before it kept each row's image
# ---------------------------------------------------------------------------

def power_ascent_rows(M, dom, cod, X0, iters=300):
    """_search.power_ascent_rows as it ran before it kept each row's image
    Mx from one step to the next: every step recomputes the live rows'
    images, three products where it now makes two: (values (R,), X)."""
    n = dom.norm_rows(X0)
    X = X0 / np.where(n > 0, n, 1.0)[:, None]
    vals = cod.norm_rows(matvec_rows(M, X))
    live = np.arange(len(X))
    for _ in range(iters):
        Xl = X[live]
        U = dual_align_in(matvec_rows(M, Xl), cod)
        Xn = primal_align_in(vecmat_rows(U, M), dom)
        vn = cod.norm_rows(matvec_rows(M, Xn))
        v = vals[live]
        stop = vn <= v + 1e-13
        take = ~stop | (vn > v)
        if take.any():
            X = X.astype(np.result_type(X, Xn), copy=False)
            X[live[take]], vals[live[take]] = Xn[take], vn[take]
        live = live[~stop]
        if not live.size:
            break
    return vals, X


# ---------------------------------------------------------------------------
# the dense norm and radius routes as they ran before they were stacked
# ---------------------------------------------------------------------------

def multistart_norm(M, dom, cod, restarts, iters, seed):
    """norm_attainment._multistart_norm with the starts of each batch of 16
    (and of the remainder) drawn as one random_unit_rows block, then run
    one after another through the scalar generic_power_ascent, merged by
    run_batches: (value, x)."""
    sizes = batch_sizes(restarts)

    def batch(rng):
        X0 = random_unit_rows(rng, sizes.pop(0), dom.dim, dom.p,
                              dom.is_complex)
        return best_of(generic_power_ascent(M, dom, cod, x0, iters=iters)
                       for x0 in X0)

    return run_batches(seed, len(sizes), batch)


def boyd_ascent_flat(M, p, q, X0, iters=300):
    """_search.boyd_ascent on one batch X0 (S, dim) with its own body, as it
    ran before the multistart norm moved to power_ascent_rows: flat products
    over the S rows; a row moves only on a gain above 1e-12 but keeps the
    point of its best value, and the batch stops when no row gains.  The
    stacked form it then took, one GEMM per batch of a (B, S, dim) stack,
    matched one call per batch bit for bit."""
    X = normalize_rows(X0.astype(complex if np.iscomplexobj(M) or
                                 np.iscomplexobj(X0) else float), p)
    vals = lp_norm_rows(X @ M.T, q)
    best = X
    for _ in range(iters):
        U = dual_align_rows(X @ M.T, q)
        Xn = primal_align_rows(U @ M, p)
        new_vals = lp_norm_rows(Xn @ M.T, q)
        best = np.where((new_vals > vals)[:, None], Xn, best)
        improved = new_vals > vals + 1e-12
        vals = np.maximum(new_vals, vals)
        if not improved.any():
            break
        X = np.where(improved[:, None], Xn, X)
    k = int(vals.argmax())
    return float(vals[k]), best[k]


def boyd_multistart_norm(M, dom, cod, restarts, iters, seed):
    """norm_attainment._multistart_norm as it ran on the stacked Boyd
    ascent, with one boyd_ascent_flat call per batch of 16 (and of the
    remainder), merged by run_batches: (value, x)."""
    sizes = batch_sizes(restarts)

    def batch(rng):
        X0 = random_unit_rows(rng, sizes.pop(0), dom.dim, dom.p,
                              dom.is_complex)
        return boyd_ascent_flat(M, dom.p, cod.p, X0, iters=iters)

    return run_batches(seed, len(sizes), batch)


def phase_grid(M, dom, cod):
    """norm_attainment._phase_grid with the whole phase grid as one meshgrid
    of PHASE_GRID^(d-1) rows and one product: (value, x)."""
    d = dom.dim
    thetas = np.linspace(0.0, 2 * np.pi, PHASE_GRID, endpoint=False)
    grids = np.meshgrid(*([thetas] * (d - 1)), indexing="ij")
    X = np.ones((grids[0].size if d > 1 else 1, d), dtype=complex)
    for j, g in enumerate(grids):
        X[:, j + 1] = np.exp(1j * g.ravel())
    vals = lp_norm_rows(X @ M.T, cod.p)
    k = int(vals.argmax())
    return vals[k], X[k].copy()


def phase_enumerate(M, dom, cod):
    """norm_attainment._phase_enumerate as it ran before its phase ascent:
    phase_grid's point, then a coordinate-wise golden polish, a golden
    search over each phase but the first in turn, for up to 60 sweeps:
    (value, x)."""
    d = dom.dim
    x = phase_grid(M, dom, cod)[1]
    for _ in range(60):
        changed = False
        for j in range(1, d):
            def f(t):
                xt = x.copy()
                xt[j] = np.exp(1j * t)
                return lp_norm(M @ xt, cod.p)
            t0 = float(np.angle(x[j]))
            tbest, fbest = golden_max(f, t0 - 0.2, t0 + 0.2, tol=1e-12)
            if fbest > lp_norm(M @ x, cod.p) + 1e-15:
                x[j] = np.exp(1j * tbest)
                changed = True
        if not changed:
            break
    return lp_norm(M @ x, cod.p), x


def sign_chunks(M, dom, cod):
    """The whole sign cube {-1, 1}^dim in binary order, every chunk of 2^14
    rows with its sign bits shifted out of its row indices, a fresh array
    per chunk: (signs, vals).  norm_attainment._sign_chunks lists its first
    half, the rows whose last sign is -1."""
    d = dom.dim
    chunk = 1 << min(d, 14)
    total = 1 << d
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        signs = (((idx[:, None] >> np.arange(d)) & 1) * 2.0 - 1.0)
        yield signs, lp_norm_rows(signs @ M.T, cod.p)


def sign_enumerate(M, dom, cod):
    """norm_attainment._sign_enumerate over sign_chunks: (value, x)."""
    best_val, best_sign = -1.0, None
    for signs, vals in sign_chunks(M, dom, cod):
        k = int(vals.argmax())
        if vals[k] > best_val:
            best_val, best_sign = float(vals[k]), signs[k]
    return best_val, best_sign


def enumerated_norming_points(M, dom, cod, value, tol):
    """norm_attainment._enumerated_norming_points over the whole cube of
    sign_chunks, in binary order."""
    return tuple(signs[k] for signs, vals in sign_chunks(M, dom, cod)
                 for k in np.nonzero(vals >= value * (1 - tol))[0])


def complex_hilbert_nu(M):
    """numerical_radius._complex_hilbert_nu with one eigvalsh call per grid
    rotation: (value, x) of its witness pair (x, conj x)."""
    H = (M + np.conj(M.T)) / 2.0
    K = 1j * (M - np.conj(M.T)) / 2.0

    def top(theta):
        return float(np.linalg.eigvalsh(np.cos(theta) * H +
                                        np.sin(theta) * K)[-1])

    thetas = np.linspace(0.0, 2 * np.pi, THETA_GRID, endpoint=False)
    vals = np.array([top(t) for t in thetas])
    k = int(vals.argmax())
    width = 2 * np.pi / THETA_GRID
    t_star, v_star = golden_max(top, thetas[k] - width, thetas[k] + width,
                                tol=NU_TOL * 1e-2)
    if vals[k] > v_star:
        t_star, v_star = thetas[k], vals[k]
    _w, vecs = np.linalg.eigh(np.cos(t_star) * H + np.sin(t_star) * K)
    return float(v_star), vecs[:, -1]


# ---------------------------------------------------------------------------
# the G-CORNER repair-bounds claim, one pair at a time
# ---------------------------------------------------------------------------

def corner_near_state(rng, dim, outer_p, eps):
    """A random state pair concentrated near the corner's attaining set."""
    blk = Space(2.0, dim)
    space = SumSpace((blk, blk), outer_p)
    x = rng.normal(size=dim) * eps * 0.3
    x[0] = 1.0
    x = x / np.linalg.norm(x)
    if outer_p == 1:
        t = rng.uniform(0, eps * 0.3)
        y = rng.normal(size=dim)
        y = t * y / np.linalg.norm(y)
        xv = space.join([(1 - t) * x, y])
        b = t
        xs_x = x                       # supports x-block direction
        xs_y = y / b if b > 0 else np.zeros(dim)
        xsv = space.join([xs_x, xs_y])
    else:
        y = rng.normal(size=dim)
        y = rng.uniform(0, 1) * y / np.linalg.norm(y)
        xv = space.join([x, y])
        xsv = space.join([x, np.zeros(dim)])
    try:
        sp = StatePair(xv, xsv, space)
        sp.validate()
        return sp
    except Exception:
        return None


def corner_repair(sp, dim, outer_p):
    """The constructive repair onto the corner's attaining set."""
    space = sp.space
    xb, yb = space.split(sp.x)
    xsb, ysb = space.split(sp.xstar)
    s1 = xb[0] / abs(xb[0])
    s2 = xsb[0] / abs(xsb[0])
    e1 = np.zeros(dim)
    e1[0] = 1.0
    if outer_p == 1:
        x_new = space.join([s1 * e1, np.zeros(dim)])
        ys_clip = ysb / max(1.0, np.linalg.norm(ysb))
        xs_new = space.join([s2 * e1, ys_clip])
    else:
        yb_clip = yb / max(1.0, np.linalg.norm(yb))
        x_new = space.join([s1 * e1, yb_clip])
        xs_new = space.join([s2 * e1, np.zeros(dim)])
    return StatePair(x_new, xs_new, space)


def corner_repair_bounds(expr, dim, outer_p, seed, repair=corner_repair):
    """(passed, detail) of the G-CORNER repair-bounds claim as its loop ran
    before the pairs were checked as rows: 200 trials, each drawn, checked,
    repaired and measured before the next."""
    space = expr.domain
    rng = np.random.Generator(np.random.PCG64(seed))
    ok = True
    detail = ""
    for _ in range(200):
        eps = rng.uniform(0.005, 0.5)
        sp = corner_near_state(rng, dim, outer_p, eps)
        if sp is None:
            continue
        val = abs(pair(sp.xstar, expr(sp.x)))
        if val <= 1 - eps:
            continue
        rep = repair(sp, dim, outer_p)
        rep.validate()
        vv = abs(pair(rep.xstar, expr(rep.x)))
        dx = space.norm(sp.x - rep.x)
        dxs = space.dual().norm(sp.xstar - rep.xstar)
        if not (abs(vv - 1.0) < 1e-9 and
                dx <= eps + np.sqrt(2 * eps) + 1e-9 and
                dxs <= np.sqrt(2 * eps) + 1e-9):
            ok = False
            detail = f"eps={eps}, dx={dx}, dxs={dxs}"
            break
    return ok, detail
