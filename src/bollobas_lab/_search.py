"""Deterministic multistart machinery shared by norms, radii, and probes.

Restart batches run one after another.  Batch b draws from the b-th child of
SeedSequence(seed), and results are merged by a first-wins max, so outcomes
depend only on (seed, batch index).  All work runs in one thread;
BOLLOBAS_LAB_THREADS is accepted and ignored.
"""

from __future__ import annotations

import numpy as np

from .spaces import INF, SumSpace, unit_phase


def best_of(results):
    """The (value, ...) tuple with the largest value, the earliest among
    ties; None entries are skipped, and None comes back when all are."""
    best = None
    for r in results:
        if r is not None and (best is None or r[0] > best[0]):
            best = r
    return best


def run_batches(seed: int, n_batches: int, batch):
    """best_of(batch(rng_b) for b < n_batches), rng_b the generator of the
    b-th SeedSequence(seed) child."""
    return best_of(batch(np.random.Generator(np.random.PCG64(s)))
                   for s in np.random.SeedSequence(seed).spawn(n_batches))


def random_polish(x, value_of, rng, space, iters: int, tries: int,
                  step: float, min_step: float):
    """Random-direction hill climb on the unit sphere of space.

    Each round tries `tries` Gaussian steps of length scale `step` and keeps
    every strict gain; a round without one halves the step, and the climb
    stops once the step falls below min_step.  value_of(x) -> (value, aux);
    returns (value, x, aux) at the final point.
    """
    val, aux = value_of(x)
    for _ in range(iters):
        moved = False
        for _ in range(tries):
            d = rng.normal(size=space.dim) + \
                (1j * rng.normal(size=space.dim) if space.is_complex else 0.0)
            cand = x + step * d
            n = space.norm(cand)
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


def random_unit_rows(rng, count, dim, p, complex_field) -> np.ndarray:
    if complex_field:
        X = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    else:
        X = rng.normal(size=(count, dim))
    return normalize_rows(X, p)


def row_norms(X: np.ndarray, p: float) -> np.ndarray:
    A = np.abs(X)
    if p == INF:
        return A.max(axis=1)
    if p == 1:
        return A.sum(axis=1)
    if p == 2:
        return np.sqrt((A * A).sum(axis=1))
    m = A.max(axis=1)
    m[m == 0] = 1.0
    return m * ((A / m[:, None]) ** p).sum(axis=1) ** (1.0 / p)


def normalize_rows(X: np.ndarray, p: float) -> np.ndarray:
    n = row_norms(X, p)
    n[n == 0] = 1.0
    return X / n[:, None]


def dual_align_rows(Y: np.ndarray, q: float) -> np.ndarray:
    """Rows u with ||u||_q' = 1 and <u, y> = ||y||_q (bilinear pairing)."""
    A = np.abs(Y)
    ph = np.conj(unit_phase(Y))
    if q == 1:
        return ph
    if q == INF:
        U = np.zeros_like(Y)
        idx = A.argmax(axis=1)
        rows = np.arange(Y.shape[0])
        U[rows, idx] = ph[rows, idx]
        return U
    n = row_norms(Y, q)
    n[n == 0] = 1.0
    return ph * (A / n[:, None]) ** (q - 1.0)


def primal_align_rows(W: np.ndarray, p: float) -> np.ndarray:
    """Rows x with ||x||_p = 1 maximizing Re <w, x> for each row w."""
    A = np.abs(W)
    ph = np.conj(unit_phase(W))
    if p == INF:
        X = ph.copy()
        X[A == 0] = 1.0
        return X
    if p == 1:
        X = np.zeros_like(W)
        idx = A.argmax(axis=1)
        rows = np.arange(W.shape[0])
        X[rows, idx] = ph[rows, idx]
        return X
    q = p / (p - 1.0)
    return normalize_rows(ph * A ** (q - 1.0), p)


def boyd_ascent(M: np.ndarray, p: float, q: float, X0: np.ndarray,
                iters: int = 300, tol: float = 1e-12):
    """Nonlinear power iteration for ||M||_{lp -> lq}, batched over rows of X0.

    Returns (best_value, best_x).  Monotone per restart; the merge takes the
    best row, ties broken by the lowest row index.
    """
    X = normalize_rows(X0.astype(complex if np.iscomplexobj(M) or
                                 np.iscomplexobj(X0) else float), p)
    vals = row_norms(X @ M.T, q)
    for _ in range(iters):
        Y = X @ M.T
        U = dual_align_rows(Y, q)
        W = U @ M
        Xn = primal_align_rows(W, p)
        new_vals = row_norms(Xn @ M.T, q)
        improved = new_vals > vals + tol
        if not improved.any():
            X, vals = Xn, np.maximum(new_vals, vals)
            break
        X = np.where(improved[:, None], Xn, X)
        vals = np.maximum(new_vals, vals)
    k = int(vals.argmax())
    return float(vals[k]), X[k]


def dual_align_vec(y: np.ndarray, space) -> np.ndarray:
    """u with ||u||_{dual} = 1 and <u, y> = ||y|| for a Space or SumSpace."""
    if isinstance(space, SumSpace):
        blocks = space.split(y)
        profile = np.array([c.norm(b) for c, b in zip(space.components, blocks)])
        w = dual_align_rows(profile[None, :].astype(float), space.outer_p)[0]
        out = []
        for c, b, wi in zip(space.components, blocks, w):
            if c.norm(b) == 0 or wi == 0:
                out.append(np.zeros(c.dim, dtype=c.dtype))
            else:
                out.append(wi.real * dual_align_vec(b, c))
        return space.join(out)
    return dual_align_rows(y[None, :], space.p)[0]


def primal_align_vec(w: np.ndarray, space) -> np.ndarray:
    """Unit x maximizing Re <w, x> for a Space or SumSpace."""
    if isinstance(space, SumSpace):
        blocks = space.split(w)
        aligned = [primal_align_vec(b, c)
                   for c, b in zip(space.components, blocks)]
        gains = np.array([max(np.real((b * a).sum()), 0.0)
                          for b, a in zip(blocks, aligned)])
        t = primal_align_rows(gains[None, :].astype(float), space.outer_p)[0]
        return space.join([ti.real * a for ti, a in zip(t, aligned)])
    return primal_align_rows(w[None, :], space.p)[0]


def generic_power_ascent(M: np.ndarray, dom, cod, x0: np.ndarray,
                         iters: int = 300, tol: float = 1e-13):
    """Monotone norm ascent x <- argmax Re <M^T dual_align(Mx), .> for
    arbitrary Space/SumSpace geometries.  Returns (value, x)."""
    n = dom.norm(x0)
    x = x0 / (n if n > 0 else 1.0)
    val = cod.norm(M @ x)
    for _ in range(iters):
        y = M @ x
        u = dual_align_vec(y, cod)
        w = u @ M
        xn = primal_align_vec(w, dom)
        vn = cod.norm(M @ xn)
        if vn <= val + tol:
            if vn > val:
                x, val = xn, vn
            break
        x, val = xn, vn
    return float(val), x


def golden_max(f, lo: float, hi: float, tol: float = 1e-12, iters: int = 200):
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = (a + b) / 2
    return xm, f(xm)


def golden_max_rows(f, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-12,
                    iters: int = 200):
    """golden_max on many rows at once: row i maximizes its own function on
    [lo[i], hi[i]], and f(t, rows) evaluates row rows[j] at t[j].  A row
    stops once its bracket is below tol, so it takes exactly the steps and
    the values of golden_max on that row alone.  Returns (xm, f(xm))."""
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    every = np.arange(len(a))
    fc, fd = f(c, every), f(d, every)
    for _ in range(iters):
        active = np.nonzero(~(b - a < tol))[0]
        if not active.size:
            break
        left = fc[active] > fd[active]
        L, R = active[left], active[~left]
        # rows in L: b, d, fd = d, c, fc, then a new c
        b[L], d[L], fd[L] = d[L], c[L], fc[L]
        c[L] = b[L] - invphi * (b[L] - a[L])
        # rows in R: a, c, fc = c, d, fd, then a new d
        a[R], c[R], fc[R] = c[R], d[R], fd[R]
        d[R] = a[R] + invphi * (b[R] - a[R])
        if L.size:
            fc[L] = f(c[L], L)
        if R.size:
            fd[R] = f(d[R], R)
    xm = (a + b) / 2
    return xm, f(xm, every)
