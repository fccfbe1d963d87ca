"""Deterministic multistart machinery shared by norms, radii, and probes.

A budget of restarts runs every start: batch_sizes splits it into full
batches and one batch of the remainder.  Batch b draws from the b-th child
of SeedSequence(seed), and results are merged by a first-wins max, so
outcomes depend only on (seed, batch index).  Only this module draws from
that layout: restart_starts and polish_source.  All work runs in one
thread; BOLLOBAS_LAB_THREADS is accepted and ignored.

Inside a batch the starts can run as the rows of one array, as the block
power method of Higham and Tisseur (SIAM J. Matrix Anal. Appl. 21(4), 2000)
iterates its starting vectors:

* power_ascent_rows steps R starts of Boyd's norm ascent (Linear Algebra
  Appl. 9, 1974) at once, on any geometry, each row with its own stop mask;
  generic_power_ascent is its one-row call and boyd_ascent its one-batch
  call on flat lp spaces.
* polish_rows runs R random-direction climbs at once, each row with its own
  step and gain mask, along trial directions from a caller-supplied source.
  Its callers stack every batch of a search as the rows of one call, and
  draw in one layout, polish_source: a fixed block of rounds x tries
  directions per start, the starts drawn one after another in batch order,
  each from its batch's generator.  The blocks are kept in chunks, so the
  buffer holds at most DRAW_SCALARS scalars whatever the budget, and a
  later chunk is redrawn from the generator state saved at its start: the
  same numbers at every chunk size.

Every library multistart runs all its batches as the rows of one call:
each batch's rows are a slice of them, its winner is the first best of its
slice (best_row), and the slices are merged in batch order, which gives
best_of over the batches run one call each.  run_batches, which runs them
one call each, only drives the start-by-start reference searches of the
tests.

The generic ascents' products are stacks of matrix-vector products
(matvec_rows, vecmat_rows), never one flat GEMM, and reductions run over
C-ordered rows, so every row rounds as its one-row call does.  The
alignment maps have row forms on flat spaces and on sums alike
(dual_align_in, primal_align_in), of which dual_align_vec and
primal_align_vec are the one-row calls.
"""

from __future__ import annotations

import numpy as np

from .spaces import (INF, Space, SumSpace, gaussian_directions, random_unit,
                     random_unit_rows, unit_phase)
# the lp-norm kernel, under the name the benchmark's tracer wraps
from .spaces import lp_norm_rows as row_norms

# the most scalars a polish_source buffer holds: one chunk of every start
DRAW_SCALARS = 2 ** 17


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


def best_row(values: np.ndarray, sizes) -> int:
    """The row run_batches picks when the restart batches of sizes are
    stacked in order as the rows of values (R,) and each batch offers its
    first_best row: the first best of each batch, then best_of over them."""
    best, a = None, 0
    for n in sizes:
        k = a + first_best(values[a:a + n])
        best = best_of([best, (float(values[k]), k)])
        a += n
    return best[1]


def batch_rngs(seed: int, n_batches: int) -> list:
    """The generators of the first n_batches SeedSequence(seed) children."""
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n_batches)]


def run_batches(seed: int, n_batches: int, batch):
    """best_of(batch(rng_b) for b < n_batches), rng_b the generator of the
    b-th SeedSequence(seed) child."""
    return best_of(batch(rng) for rng in batch_rngs(seed, n_batches))


def batch_sizes(restarts: int, size: int) -> list:
    """The starts of each restart batch: ceil(restarts / size) batches of
    size, the last one with the remainder.  restarts below 1: ValueError."""
    if restarts < 1:
        raise ValueError(f"a multistart needs restarts >= 1, got {restarts}")
    return [min(size, restarts - b) for b in range(0, restarts, size)]


def restart_starts(space, seed: int, sizes) -> np.ndarray:
    """The random starts of every restart batch of sizes, stacked in batch
    order (sum(sizes), dim): batch b is one random_unit_rows call of
    sizes[b] starts on the generator of the b-th SeedSequence(seed) child."""
    return np.concatenate([random_unit_rows(space, rng, n) for rng, n in
                           zip(batch_rngs(seed, len(sizes)), sizes)])


def polish_source(seed: int, sizes, space, rounds: int, tries: int):
    """The draws of the climbs of every restart batch, batch b of sizes[b]
    starts drawing from the b-th SeedSequence(seed) child: start by start,
    each start's random_unit, then its block of rounds x tries trial
    directions.  Returns the starts (sum(sizes), dim), stacked in batch
    order, and directions(r, rows), the source polish_rows reads, which
    gives round r of the listed rows.

    A block is kept in chunks of K rounds, K chosen so that one chunk of
    every start holds at most DRAW_SCALARS scalars.  Chunk 0 of each start
    is drawn into the buffer; for every later chunk the generator's state at
    its start is saved, and the chunk is drawn and dropped, which advances
    the stream to the next chunk and at last to the next start.  A row whose
    round r lies in a chunk it has not loaded redraws that chunk from the
    saved state.  Generator.normal fills its output in C order, so the
    chunks of a start are the numbers of one draw of its whole block, and a
    row redraws only the chunks its climb reaches.  Each row is read in
    increasing rounds, as polish_rows reads it."""
    count, dim = sum(sizes), space.dim
    K = max(1, min(rounds, DRAW_SCALARS // (count * tries * dim)))
    X0 = np.empty((count, dim), dtype=space.dtype)
    buf = np.empty((count, K, tries, dim), dtype=space.dtype)
    states = [[] for _ in range(count)]     # the start of chunks 1, 2, ...

    def draw(rng, c):
        n = min(K, rounds - c * K)
        return gaussian_directions(rng, n * tries, space).reshape(n, tries,
                                                                 dim)

    rngs = batch_rngs(seed, len(sizes))
    for i, rng in enumerate(r for r, n in zip(rngs, sizes) for _ in range(n)):
        X0[i] = random_unit(space, rng)
        buf[i, :min(K, rounds)] = draw(rng, 0)
        for c in range(1, -(-rounds // K)):
            states[i].append(rng.bit_generator.state)
            draw(rng, c)
    loaded = np.zeros(count, dtype=int)
    refill = np.random.Generator(np.random.PCG64(0))

    def directions(r, rows):
        c, j = divmod(r, K)
        for i in rows[loaded[rows] != c]:
            refill.bit_generator.state = states[i][c - 1]
            D = draw(refill, c)
            buf[i, :len(D)] = D
            loaded[i] = c
        return buf[rows, j]

    return X0, directions


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


def normalize_rows(X: np.ndarray, p: float) -> np.ndarray:
    n = row_norms(X, p)
    n[n == 0] = 1.0
    return X / n[:, None]


def dual_align_rows(Y: np.ndarray, q: float, norms=None) -> np.ndarray:
    """Rows u with ||u||_q' = 1 and <u, y> = ||y||_q (bilinear pairing).
    norms, when given, are the rows' lq norms row_norms(Y, q)."""
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
    n = row_norms(Y, q) if norms is None else np.array(norms, dtype=float)
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
    """Boyd's ascent for ||M||_{lp -> lq} from every row of one batch X0
    (S, dim): power_ascent_rows on the flat spaces, whose first best row
    gives (value, x)."""
    field = "complex" if np.iscomplexobj(M) or np.iscomplexobj(X0) else "real"
    vals, X = power_ascent_rows(M, Space(p, M.shape[1], field),
                                Space(q, M.shape[0], field), X0, iters)
    k = first_best(vals)
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
    profile; a block of norm 0 or weight 0 stays zero.  The blocks of a
    group are aligned as the rows of one call."""
    if not isinstance(space, SumSpace):
        return dual_align_rows(Y, space.p)
    Y = np.asarray(Y, dtype=space.dtype)
    R = len(Y)
    N = space.profile_rows(Y)
    W = dual_align_rows(N, space.outer_p)
    out = np.empty(Y.shape, dtype=space.dtype)
    for g in space.groups:
        n, w = N[:, g.blocks].reshape(-1), W[:, g.blocks].reshape(-1)
        B = np.zeros((len(n), g.space.dim), dtype=space.dtype)
        rows = np.flatnonzero((n != 0) & (w != 0))
        if rows.size:
            B[rows] = w[rows, None] * dual_align_in(g.stack(Y)[rows], g.space)
        out[:, g.cols] = g.unstack(B, R)
    return out


def primal_align_in(W: np.ndarray, space) -> np.ndarray:
    """primal_align_vec for every row of W.  On a sum each block is aligned
    in its component and scaled by the outer alignment of the row's gains
    max(Re <w_b, x_b>, 0); the blocks of a group are aligned, and their
    gains summed, as the rows of one call."""
    if not isinstance(space, SumSpace):
        return primal_align_rows(W, space.p)
    W = np.asarray(W, dtype=space.dtype)
    R = len(W)
    X = np.empty(W.shape, dtype=space.dtype)
    gains = np.empty((R, len(space.components)))
    for g in space.groups:
        B = g.stack(W)
        P = primal_align_in(B, g.space)
        X[:, g.cols] = g.unstack(P, R)
        gains[:, g.blocks] = g.unstack(np.real(np.add.reduce(B * P, axis=1)),
                                       R)
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
    the rounding of its one-row ascent.  Each row keeps its image Mx from
    the step that made it, so a step makes two products.  Returns
    (values (R,), X)."""
    n = dom.norm_rows(X0)
    X = X0 / np.where(n > 0, n, 1.0)[:, None]
    Y = matvec_rows(M, X)
    vals = cod.norm_rows(Y)
    live = np.arange(len(X))
    for _ in range(iters):
        # vals holds the norms of the rows of Y, which the flat map reuses
        U = dual_align_in(Y[live], cod) if isinstance(cod, SumSpace) \
            else dual_align_rows(Y[live], cod.p, vals[live])
        Xn = primal_align_in(vecmat_rows(U, M), dom)
        Yn = matvec_rows(M, Xn)
        vn = cod.norm_rows(Yn)
        v = vals[live]
        stop = vn <= v + 1e-13
        take = ~stop | (vn > v)
        if take.any():
            X = X.astype(np.result_type(X, Xn), copy=False)
            Y = Y.astype(np.result_type(Y, Yn), copy=False)
            rows = live[take]
            X[rows], Y[rows], vals[rows] = Xn[take], Yn[take], vn[take]
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


def phase_times(phi, v: np.ndarray) -> np.ndarray:
    """phi * v for unit phases phi, one for all rows, one per row or one per
    entry.  Complex products are formed from real and imaginary parts, as
    one complex scalar product rounds, so every row rounds as its one-row
    call does whatever the broadcast shape."""
    # a real phase is +-1.0 or a real array; np.iscomplexobj costs more
    if isinstance(phi, float) or phi.dtype.kind != "c":
        return phi * v
    return complex_parts(phi.real * v.real - phi.imag * v.imag,
                         phi.real * v.imag + phi.imag * v.real)


def complex_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with real part re and imaginary part im."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


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
