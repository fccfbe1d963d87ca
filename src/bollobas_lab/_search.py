"""Deterministic multistart machinery shared by norms, radii, and probes.

Restart batches run one after another.  Batch b draws from the b-th child of
SeedSequence(seed), and results are merged by a first-wins max, so outcomes
depend only on (seed, batch index).  All work runs in one thread;
BOLLOBAS_LAB_THREADS is accepted and ignored.

Inside a batch the starts can run as the rows of one array, as the block
power method of Higham and Tisseur (SIAM J. Matrix Anal. Appl. 21(4), 2000)
iterates its starting vectors and as boyd_ascent does for flat dense norms:

* power_ascent_rows steps R starts of the generic norm ascent at once, each
  row with its own stop mask; generic_power_ascent is its one-row call.
* polish_rows runs R random-direction climbs at once, each row with its own
  step and gain mask, along trial directions from a caller-supplied source.
  Its callers draw them in one layout, polish_draws: a fixed block of
  directions per start, drawn before any climb runs.

Products are stacks of matrix-vector products (matvec_rows, vecmat_rows),
never one flat GEMM, and reductions run over C-ordered rows, so every row
rounds as its one-row call does.  The alignment maps have row forms on flat
spaces and on sums alike (dual_align_in, primal_align_in), of which
dual_align_vec and primal_align_vec are the one-row calls.
"""

from __future__ import annotations

import numpy as np

from .spaces import INF, SumSpace, block_rows, random_unit, unit_phase
# the lp-norm kernel, under the name the benchmark's tracer wraps
from .spaces import lp_norm_rows as row_norms


def best_of(results):
    """The (value, ...) tuple with the largest value, the earliest among
    ties; None entries are skipped, and None comes back when all are."""
    best = None
    for r in results:
        if r is not None and (best is None or r[0] > best[0]):
            best = r
    return best


def first_best(values: np.ndarray) -> int:
    """The index best_of picks among values (R,): the first largest, or the
    first entry when it is NaN, since no value compares greater."""
    return 0 if np.isnan(values[0]) else int(np.nanargmax(values))


def run_batches(seed: int, n_batches: int, batch):
    """best_of(batch(rng_b) for b < n_batches), rng_b the generator of the
    b-th SeedSequence(seed) child."""
    return best_of(batch(np.random.Generator(np.random.PCG64(s)))
                   for s in np.random.SeedSequence(seed).spawn(n_batches))


def gaussian_directions(rng, count: int, space) -> np.ndarray:
    """count Gaussian directions (count, dim), drawn as count successive
    draws of one direction each: the real part, then the imaginary part."""
    if space.is_complex:
        N = rng.normal(size=(count, 2, space.dim))
        return N[:, 0] + 1j * N[:, 1]
    return rng.normal(size=(count, space.dim))


def polish_draws(rng, space, count: int, rounds: int, tries: int):
    """The draws of count climbs, start by start: each start's random_unit,
    then its block of rounds x tries trial directions.  Returns the starts
    (count, dim) and the directions (count, rounds, tries, dim), which hold
    count * rounds * tries * dim scalars of space.dtype; a start that stops
    early leaves the rest of its block unused."""
    X0 = np.empty((count, space.dim), dtype=space.dtype)
    D = np.empty((count, rounds, tries, space.dim), dtype=space.dtype)
    for i in range(count):
        X0[i] = random_unit(space, rng)
        D[i] = gaussian_directions(rng, rounds * tries,
                                   space).reshape(rounds, tries, -1)
    return X0, D


def polish_rows(X, value_rows, space, directions, iters: int, tries: int,
                step: float, min_step: float):
    """Random-direction hill climbs on the unit sphere of space, one per row
    of X (R, dim), each row with its own step and its own gain mask.

    Each round tries `tries` steps of length scale step along the round's
    trial directions and keeps every strict gain (above 1e-14); a round
    without one halves the row's step, and the row stops once its step
    falls below min_step.  directions(r, rows) -> (len(rows), tries, dim)
    gives the trial directions of round r for the listed rows;
    value_rows(X) -> (values (R,), aux (R, ...) or None).  Every row rounds
    as its one-row climb does.  Returns (values, X, aux) at the final
    points.
    """
    X = np.asarray(X)
    X = X.astype(np.result_type(X, space.dtype))
    vals, aux = value_rows(X)
    # the live rows' state, compacted; a row that stops is stored back
    idx, Xl, vl = np.arange(len(X)), X.copy(), vals.copy()
    al = None if aux is None else aux.copy()
    sl = np.full(len(X), float(step))

    def store(rows):
        X[idx[rows]], vals[idx[rows]] = Xl[rows], vl[rows]
        if aux is not None:
            aux[idx[rows]] = al[rows]

    for r in range(iters):
        trials = sl[:, None, None] * directions(r, idx)
        moved = np.zeros(len(idx), dtype=bool)
        for t in range(tries):
            C = Xl + trials[:, t]
            n = space.norm_rows(C)
            at = slice(None)
            if np.count_nonzero(n) < len(n):    # a zero row is skipped
                at = np.nonzero(n)[0]
                if not len(at):
                    continue
                C, n = C[at], n[at]
            C /= n[:, None]
            v, a = value_rows(C)
            gain = v > vl[at] + 1e-14
            if np.count_nonzero(gain):
                won = gain if isinstance(at, slice) else at[gain]
                Xl[won], vl[won] = C[gain], v[gain]
                if al is not None:
                    al[won] = a[gain]
                moved[won] = True
        sl[~moved] *= 0.5
        stop = ~moved & (sl < min_step)
        if np.count_nonzero(stop):
            store(stop)
            keep = ~stop
            idx, Xl, vl, sl = idx[keep], Xl[keep], vl[keep], sl[keep]
            al = None if al is None else al[keep]
            if not len(idx):
                break
    store(slice(None))
    return vals, X, aux


def matvec_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X.  A stack of matrix-vector products, never
    one flat GEMM, so that each row rounds as M @ x does."""
    return (M @ np.ascontiguousarray(X)[:, :, None])[:, :, 0]


def vecmat_rows(U: np.ndarray, M: np.ndarray) -> np.ndarray:
    """u @ M for every row u of U, rounded as the one-vector product."""
    return (np.ascontiguousarray(U)[:, None, :] @ M)[:, 0, :]


def random_unit_rows(rng, count, dim, p, complex_field) -> np.ndarray:
    if complex_field:
        X = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    else:
        X = rng.normal(size=(count, dim))
    return normalize_rows(X, p)


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
                iters: int = 300):
    """Nonlinear power iteration for ||M||_{lp -> lq}, batched over rows of X0.

    Returns (best_value, best_x).  Monotone per restart: a row moves only
    on a gain above 1e-12, and the ascent stops when no row gains; the merge
    takes the best row, ties broken by the lowest row index.
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
        improved = new_vals > vals + 1e-12
        if not improved.any():
            X, vals = Xn, np.maximum(new_vals, vals)
            break
        X = np.where(improved[:, None], Xn, X)
        vals = np.maximum(new_vals, vals)
    k = int(vals.argmax())
    return float(vals[k]), X[k]


def dual_align_vec(y: np.ndarray, space) -> np.ndarray:
    """u with ||u||_{dual} = 1 and <u, y> = ||y|| for a Space or SumSpace:
    the one-row call of dual_align_in."""
    return dual_align_in(np.asarray(y)[None, :], space)[0]


def primal_align_vec(w: np.ndarray, space) -> np.ndarray:
    """Unit x maximizing Re <w, x> for a Space or SumSpace: the one-row
    call of primal_align_in."""
    return primal_align_in(np.asarray(w)[None, :], space)[0]


def dual_align_in(Y: np.ndarray, space) -> np.ndarray:
    """dual_align_vec for every row of Y.  On a sum each block is aligned
    in its component and weighted by the outer alignment of the row's block
    profile; a block of norm 0 or weight 0 stays zero."""
    if not isinstance(space, SumSpace):
        return dual_align_rows(Y, space.p)
    Y = np.asarray(Y, dtype=space.dtype)
    N = space.profile_rows(Y)
    W = dual_align_rows(N, space.outer_p)
    out = np.zeros(Y.shape, dtype=space.dtype)
    for i, (c, (a, b)) in enumerate(zip(space.components, space._offsets)):
        rows = np.flatnonzero((N[:, i] != 0) & (W[:, i] != 0))
        if rows.size:
            out[rows, a:b] = W[rows, i, None] * dual_align_in(Y[rows, a:b], c)
    return out


def primal_align_in(W: np.ndarray, space) -> np.ndarray:
    """primal_align_vec for every row of W.  On a sum each block is aligned
    in its component and scaled by the outer alignment of the row's gains
    max(Re <w_b, x_b>, 0)."""
    if not isinstance(space, SumSpace):
        return primal_align_rows(W, space.p)
    W = np.asarray(W, dtype=space.dtype)
    X = np.empty(W.shape, dtype=space.dtype)
    for c, (a, b) in zip(space.components, space._offsets):
        X[:, a:b] = primal_align_in(W[:, a:b], c)
    gains = block_rows(W * X, space._offsets,
                       [lambda B: np.real(B.sum(axis=1))]
                       * len(space.components))
    T = primal_align_rows(np.maximum(gains, 0.0), space.outer_p)
    return X * np.repeat(T, [c.dim for c in space.components], axis=1)


def generic_power_ascent(M: np.ndarray, dom, cod, x0: np.ndarray,
                         iters: int = 300):
    """Monotone norm ascent x <- argmax Re <M^T dual_align(Mx), .> for
    arbitrary Space/SumSpace geometries: the one-row call of
    power_ascent_rows.  Returns (value, x)."""
    vals, X = power_ascent_rows(M, dom, cod, np.asarray(x0)[None, :], iters)
    return float(vals[0]), X[0]


def power_ascent_rows(M: np.ndarray, dom, cod, X0: np.ndarray,
                      iters: int = 300):
    """generic_power_ascent on every row of X0 (R, dim) at once.

    Each row is normalized, then steps x <- primal_align(M^T dual_align(Mx))
    until a step gains at most 1e-13 (a last step that still gains is
    kept), each row with its own stop mask, so every row takes the steps and
    the rounding of its one-row ascent.  Returns (values (R,), X)."""
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


def golden_max(f, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section maximization of a unimodal scalar function, for at
    most 200 steps."""
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
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


def golden_max_rows(f, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-12):
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
    for _ in range(200):
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


def phase_orbit_min_rows(objective, tol: float):
    """The least objective(phi, rows) -> (len(rows),) over unit phases
    phi = e^{it}, for every row: first on a 64-point grid of t, with one
    phase for all rows (rows = slice(None)), then by golden_max_rows within
    0.2 of each row's best grid point, with one phase per row shaped (R, 1).
    Returns (t, min), each (R,)."""
    ths = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    grid = np.array([objective(np.exp(1j * t), slice(None)) for t in ths])
    coarse = ths[grid.argmin(axis=0)]
    t, neg = golden_max_rows(
        lambda t, rows: -objective(np.exp(1j * t)[:, None], rows),
        coarse - 0.2, coarse + 0.2, tol=tol)
    return t, -neg
