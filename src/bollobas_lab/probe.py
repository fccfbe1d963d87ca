"""Adversarial, budgeted estimation of the stability modulus eta(eps, T).

The probe maximizes the value (||Tx|| or |<x*, Tx>|) over inputs that are
certifiably at least eps away from the attaining set, and reports

    eta_hat = 1 - best feasible value

which is an upper bound on the true modulus witnessed by a concrete point.
Feasibility is a hard filter through exact/lower-bound distance oracles, so
reported witnesses are valid by construction.  Absence of good witnesses is
only budget-relative; the report never claims a lower bound beyond that.

Both probes are modes of one pipeline, _probe.  A mode checks its inputs
and supplies its seeds, how seed rows are scored, the distance rows its
boundary seeds are searched on, and its restart stage; the pipeline adds
the boundary seeds, scores every seed, merges the restarts' best and
finalizes the report.  The restarts are batches of 16 random starts,
ceil(restarts / 16) of them, the last one with the remainder.  Batch b
draws from the b-th SeedSequence(seed) child and the best feasible point
wins, the earliest on ties, so a fixed seed fixes every output.

Each mode runs every batch as the rows of one program, and returns what
running the batches one after another, and their starts one after
another, returns, bit for bit:

* norm: the starts are drawn batch by batch, one random_unit_rows call
  each (_search.restart_starts), and all of them walk as the rows of one
  power ascent (_norm_walk).  Each start walks alone: it ends
  at a step allclose to its point, after iters steps, or at its first
  infeasible step, and in the last case it pulls back toward the point
  before that step when that point is feasible; all pullbacks are the rows
  of one search.  Each start's feasible points, then its pullback's, are
  folded into its first best as they come, so a start keeps its current
  point, its best and its infeasible step, never its path.
* nu: each start's random_unit and its block of rounds x 3 trial
  directions are drawn start by start, batch b from its generator
  (_search.polish_source).  The starts of every batch are polished as the
  rows of one call (_search.polish_rows), and their final pairs are checked
  with one pair_distance_rows call.  The best feasible row, the earliest on
  ties, is the winner best_of over the batches run one call each picks.
  The polish reads neither eps nor the attaining set, so it runs once per
  matrix, domain, seed, restarts and iters, and the probes at every eps of
  a grid share its read-only rows (_nu_restarts, an lru_cache of 8); the
  pair distances, the candidates and the seeds are computed on every call.

The block is the layout at every budget: a start that stops early leaves
the rest of its block unused.  _search.polish_source keeps the blocks in
chunks of a bounded number of rounds and redraws a later chunk from the
generator state saved at its start, so the numbers are those of the whole
block while the buffer stays bounded.  A polish halves its step of 0.4 on
each round without a gain and stops below 1e-7, which takes 22 halvings, so
below iters = 2200 (at most 21 rounds) no start stops early, and the blocks
are also the stream of polishes that draw each round's directions when
they reach it, one start after another.

The boundary seeds on flat spaces are found as one row batch: every
(base point, coordinate direction) pair is a row of one array, and each
step of the search is one row-form distance call (distance_rows, or
pair_distance_rows with best_state_functional_rows) over the rows still
searching.  The boundary seeds and the pullbacks share one root-finder,
_itp_rows: ITP (interpolate, truncate, project; Oliveira and Takahashi,
ACM TOMS 47(1), 2020) on g(t) = dist(C(t)) - (eps - FEAS_TOL) along each
row's normalized segment C(t).  A step takes the secant root of the row's
bracket, nudged toward the midpoint and kept near it, so no row takes more
than one step beyond the bisection to the same resolution (2^-40 for the
seeds, 2^-30 for the pullbacks), and rows with a smooth distance converge
superlinearly; a row also stops once a step lands feasible within FEAS_TOL
of the threshold.  The row forms round each row as the one-vector oracles
do, so the seeds are those of one scalar search per pair.

The seeds are one row program too: all of them are the rows of one array,
in the order diagonal-profile, caller, boundary seeds (nu: caller, diagonal,
boundary), scored by one call of each row kernel, and each row is one
candidate in that order, None when its distance is below eps - FEAS_TOL.
Caller seeds off the unit sphere by more than PI_TOL, or pairs failing the
checks of StatePair.validate, raise GeometryError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._search import (batch_sizes, best_of, matvec_rows, polish_rows,
                      polish_source, power_ascent_rows, restart_starts)
from .errors import GeometryError, HeuristicRefusalError, NotNormalizedError
from .membership import _group_cap, _norm_profile_mass
from .norm_attainment import NORM_TOL, norming_set, operator_norm
from .numerical_radius import (NuResult, NuStatesDescriptor, _modulus,
                               best_state_functional_rows,
                               nu_attaining_states, numerical_radius)
from .operators import Diagonal, OperatorExpr, Scale, apply, to_matrix
from .spaces import INF, PI_TOL, StatePair, SumSpace, pair

FEAS_TOL = 1e-12


@dataclass
class ProbeBudget:
    """restarts and iters must be at least 1: ValueError otherwise."""
    restarts: int = 256
    iters: int = 2000

    def __post_init__(self):
        if not (self.restarts >= 1 and self.iters >= 1):
            raise ValueError(f"probe budget needs restarts >= 1 and iters "
                             f">= 1, got {self.restarts} and {self.iters}")

    def describe(self):
        return {"restarts": self.restarts, "iters": self.iters}


@dataclass
class ProbeReport:
    mode: str
    epsilon: float
    eta_hat: float
    sentinel: bool
    best_value: float
    witness: object = None
    witness_distance: float = float("nan")
    seed: int = 0
    budget: ProbeBudget = field(default_factory=ProbeBudget)

    def csv_row(self, dim: int) -> str:
        def fmt(v):
            if v != v:
                return ""
            if v == float("inf"):
                return "inf"
            return repr(float(v))
        slack = "" if self.sentinel or self.best_value == -float("inf") \
            else fmt(1.0 - self.best_value)
        return ",".join([str(dim), fmt(self.epsilon), fmt(self.eta_hat),
                         slack, fmt(self.witness_distance), str(self.seed)])

    def describe(self) -> dict:
        return {"mode": self.mode, "epsilon": self.epsilon,
                "eta_hat": self.eta_hat, "sentinel": self.sentinel,
                "best_value": self.best_value,
                "witness_distance": self.witness_distance,
                "seed": self.seed, "budget": self.budget.describe()}


CSV_HEADER = "dim,epsilon,eta_hat,slack,distance,seed"


def _check_eps(eps):
    if not (np.isfinite(eps) and eps > 0):
        raise GeometryError(f"eps must be finite and > 0, got {eps}")


def _resolve_norm(T):
    nr = operator_norm(T)
    if not nr.is_certified():
        raise HeuristicRefusalError("probe refused: heuristic norm")
    if abs(nr.value - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"probe needs ||T|| = 1, got {nr.value}")
    return nr, norming_set(T, nr)


def _diag_profile(T):
    """(space, j_idx, off_idx) for a (scaled) diagonal T: j_idx is the first
    coordinate of J = {n : |alpha_n| = max}, off_idx the largest coordinate
    off J.  None when T is not diagonal or J is everything."""
    inner = T
    scale = 1.0
    while isinstance(inner, Scale):
        scale *= abs(inner.scalar)
        inner = inner.child
    if not isinstance(inner, Diagonal):
        return None
    mods = np.abs(inner.alphas() * scale)
    J = mods >= mods.max() * (1 - 1e-12)
    if J.all():
        return None
    return (inner.domain, int(np.argmax(J)),
            int(np.argmax(np.where(J, -1.0, mods))))


def _diag_norm_seeds(T, eps):
    """Profile-optimal feasible seeds for diagonal operators: they realize
    the exact truncated modulus, which keeps eta_hat tight and monotone."""
    profile = _diag_profile(T)
    if profile is None:
        return []
    space, j_idx, off_idx = profile
    p = space.p
    x = np.zeros(space.dim, dtype=space.dtype)
    if p == INF:
        x[j_idx], x[off_idx] = max(0.0, 1.0 - eps), 1.0
    else:
        A = _norm_profile_mass(p, eps)
        x[j_idx], x[off_idx] = A, max(0.0, 1 - A ** p) ** (1.0 / p)
    return [x]


def _boundary_seeds(space, dist_rows, eps, base_points, rng):
    """Walk from attaining-set base points toward coordinate directions and
    search along each segment for the feasibility boundary dist = eps; these
    seeds sit exactly where the constrained maximum lives.

    Every (base, direction) pair is one row of a single array, searched by
    _itp_rows to a bracket of 2^-40 (at most 41 steps); the seed of a row is
    the last feasible point the search reached.  dist_rows maps (R, dim)
    points to (R,) distances.  Only infeasible bases and feasible directions
    make rows; their distances are the ends of every bracket.  Seeds come
    base-major, then by direction; above 48 dimensions, 48 directions drawn
    from rng stand for all of them."""
    d = space.dim
    idx = list(range(d)) if d <= 48 else \
        sorted(rng.choice(d, size=48, replace=False).tolist())
    E = np.eye(d, dtype=space.dtype)[idx]
    dirs = E if space.is_complex else np.stack([E, -E], axis=1).reshape(-1, d)
    d1 = dist_rows(dirs)
    keep = d1 >= eps - FEAS_TOL
    dirs, d1 = dirs[keep], d1[keep]
    if not len(base_points) or not len(dirs):
        return []
    bases = np.asarray(base_points, dtype=space.dtype)
    d0 = dist_rows(bases)
    keep = d0 < eps - FEAS_TOL
    bases, d0 = bases[keep], d0[keep]
    B = np.repeat(bases, len(dirs), axis=0)
    seeds, found = np.zeros_like(B), np.zeros(len(B), dtype=bool)
    for rows, C, _d in _itp_rows(B, np.tile(dirs, (len(bases), 1)),
                                 np.repeat(d0, len(dirs)),
                                 np.tile(d1, len(bases)), 40, space,
                                 dist_rows, eps):
        seeds[rows], found[rows] = C, True
    return list(seeds[found])


def _itp_rows(X0, X1, D0, D1, bits, space, dist_rows, eps):
    """ITP root-finding of g(t) = dist(C(t)) - (eps - FEAS_TOL) along the
    normalized segments C(t) from X0[i] (t = 0) toward X1[i] (t = 1), every
    segment a row with its own bracket [lo, hi], g(lo) < 0 <= g(hi); D0 and
    D1 are the distances of the ends, g(0) < 0 <= g(1).

    A step at step index j takes the secant root x_f of the bracket, moves it
    by 0.2 (hi - lo)^2 toward the midpoint (not past it), and projects it
    into 2^-j - (hi - lo)/2 of the midpoint (Oliveira and Takahashi, ACM
    TOMS 47(1), 2020, with kappa1 = 0.2, kappa2 = 2, n0 = 1).  A point of
    norm zero counts as at distance 0, so infeasible.  A row stops when
    hi - lo <= 2^-bits, or when a step lands feasible within FEAS_TOL of the
    threshold; no row takes more than bits + 1 steps.  Yields, for each
    step, the feasible rows, their normalized points and their distances."""
    thr = eps - FEAS_TOL
    lo, hi = np.zeros(len(X0)), np.ones(len(X0))
    g_lo, g_hi = D0 - thr, D1 - thr
    live = np.arange(len(X0))
    for j in range(bits + 1):
        live = live[hi[live] - lo[live] > 2.0 ** -bits]
        if not live.size:
            return
        a, b, ga, gb = lo[live], hi[live], g_lo[live], g_hi[live]
        half = (a + b) / 2
        x_f = (a * gb - b * ga) / (gb - ga)
        sigma = np.sign(half - x_f)
        delta = 0.2 * (b - a) * (b - a)
        x_t = np.where(delta <= np.abs(half - x_f), x_f + sigma * delta, half)
        r = 2.0 ** -j - (b - a) / 2
        t = np.where(np.abs(x_t - half) <= r, x_t, half - sigma * r)
        C = (1 - t)[:, None] * X0[live] + t[:, None] * X1[live]
        n = space.norm_rows(C)
        nz = np.flatnonzero(n != 0)
        C = C[nz] / n[nz, None]
        d = dist_rows(C) if nz.size else np.zeros(0)
        g = np.full(len(live), -thr)
        g[nz] = d - thr
        feas = g >= 0
        ok = feas[nz]
        hi[live[feas]], g_hi[live[feas]] = t[feas], g[feas]
        lo[live[~feas]], g_lo[live[~feas]] = t[~feas], g[~feas]
        yield live[nz[ok]], C[ok], d[ok]
        live = live[~feas | (g > FEAS_TOL)]


def _seed_rows(space, vectors):
    """The vectors as the rows of one (S, dim) array of space's dtype."""
    return np.asarray(vectors, dtype=space.dtype).reshape(-1, space.dim)


def _caller_seeds(space, extra_seeds, pairs=False):
    """The caller seeds as (x, x* or None) rows, in order.  With pairs, a
    StatePair, and a 2-tuple with a vector among its entries, give (x, x*);
    any other seed is a bare x.  GeometryError unless each x is a unit vector
    within PI_TOL and each pair passes StatePair.validate's checks: one
    norm_rows call per side, one pairing."""
    seeds = []
    for s in extra_seeds:
        if pairs and isinstance(s, StatePair):
            s = (s.x, s.xstar)
        seeds.append((space.check(s[0]), space.dual().check(s[1]))
                     if pairs and isinstance(s, tuple) and len(s) == 2
                     and max(map(np.ndim, s)) > 0 else (space.check(s), None))
    if not seeds:
        return seeds
    X = _seed_rows(space, [x for x, _ in seeds])
    paired = [i for i, (_x, xs) in enumerate(seeds) if xs is not None]
    XS = _seed_rows(space, [seeds[i][1] for i in paired])
    for what, rows, v in (("||x||", range(len(X)), space.norm_rows(X)),
                          ("||x*||", paired, space.dual().norm_rows(XS)),
                          ("<x*, x>", paired, (XS * X[paired]).sum(axis=1))):
        off = np.nonzero(np.abs(v - 1.0) > PI_TOL)[0]
        if off.size:
            raise GeometryError(f"extra seed {rows[off[0]]}: {what} = "
                                f"{v[off[0]]} is not 1 within {PI_TOL}")
    return seeds


def _row_candidates(vals, dist, eps, witness):
    """One candidate per row i of values and distances (R,), in order: (value,
    distance, witness(i)) at a distance >= eps - FEAS_TOL, else None."""
    return [(float(v), float(d), witness(i)) if d >= eps - FEAS_TOL
            else None for i, (v, d) in enumerate(zip(vals, dist))]


def _probe(mode, eps, budget, seed, space, desc, seeds, score, dist_rows,
           restarts):
    """The stages both probes share.  A mode supplies its seeds as (x, x* or
    None) rows; score(X, xstars) -> (values, distances, witness) of the seed
    rows; the dist_rows of its boundary seeds, which follow its own seeds
    off sums; and its restart stage, restarts(budget) -> candidates in
    start order, whose best comes after the seeds."""
    budget = budget or ProbeBudget()
    seed_rng = np.random.Generator(np.random.PCG64(seed))
    if not desc.is_empty and not isinstance(space, SumSpace):
        try:
            bases = [b.x if isinstance(b, StatePair) else b
                     for b in desc.sample(seed_rng, 2)]
        except (NotImplementedError, GeometryError):
            bases = []
        seeds = seeds + [(x, None) for x in _boundary_seeds(
            space, dist_rows, eps, bases, seed_rng)]
    candidates = []
    if seeds:
        X = _seed_rows(space, [x for x, _ in seeds])
        vals, dist, witness = score(X, [xs for _, xs in seeds])
        candidates = _row_candidates(vals, dist, eps, witness)
    candidates.append(best_of(restarts(budget)))
    return _finalize(mode, eps, candidates, seed, budget)


def eta_probe_norm(T: OperatorExpr, eps: float,
                   budget: Optional[ProbeBudget] = None, seed: int = 0,
                   extra_seeds=()) -> ProbeReport:
    """eps must be finite and > 0, else GeometryError.  extra_seeds:
    iterable of x vectors, each checked once against the domain: a wrong
    shape raises DimensionMismatchError, and a NaN or inf entry or a norm
    off 1 by more than PI_TOL raises GeometryError."""
    _check_eps(eps)
    nr, desc = _resolve_norm(T)
    space, cod, M = T.domain, T.codomain, to_matrix(T)
    seeds = [(x, None) for x in _diag_norm_seeds(T, eps)] \
        + _caller_seeds(space, extra_seeds)

    def score(X, _xstars):
        return (cod.norm_rows(matvec_rows(M, X)), desc.distance_rows(X),
                X.__getitem__)

    def restarts(budget):
        X0 = restart_starts(space, seed, batch_sizes(budget.restarts, 16))
        return _norm_walk(M, space, cod, X0, max(10, budget.iters // 100),
                          desc.distance_rows, eps)

    return _probe("norm", eps, budget, seed, space, desc, seeds, score,
                  desc.distance_rows, restarts)


def _norm_walk(M, space, cod, X0, steps, dist_rows, eps):
    """The norm probe's starts X0, all as rows of one walk: point k + 1 of a
    start is generic_power_ascent(point k, iters=3).  A start ends before a
    step allclose to its point, after `steps` steps, or at its first
    infeasible step; in the last case, when the point before that step is
    feasible, it pulls back from the step toward that point, every pullback
    a row of one _itp_rows search to a bracket of 2^-30 (at most 31 steps).
    Each feasible point, then each feasible step of the pullback, is folded
    into its start's first best as it comes.  A step is scored by the value
    power_ascent_rows returns for it; only the starts, which the ascent
    normalizes, and the pullback's points are scored afresh.  Returns one
    candidate per start, the best (value, distance, point) it reached, the
    earliest on ties, or None."""
    R, thr = len(X0), eps - FEAS_TOL
    best_v, best_d = np.zeros(R), np.zeros(R)
    best_x, found = np.zeros_like(X0), np.zeros(R, dtype=bool)

    def offer(rows, vals, dists, points):
        win = ~found[rows] | (vals > best_v[rows])
        rows = rows[win]
        best_v[rows], best_d[rows], best_x[rows] = vals[win], dists[win], \
            points[win]
        found[rows] = True

    def score(rows, points, dists):
        if rows.size:
            offer(rows, cod.norm_rows(matvec_rows(M, points)), dists, points)

    X, D = X0.copy(), dist_rows(X0)
    feas = np.flatnonzero(D >= thr)
    score(feas, X0[feas], D[feas])
    X_out, D_out = np.zeros_like(X0), np.zeros(R)
    out, live = np.zeros(R, dtype=bool), np.arange(R)
    for _ in range(steps):
        V, Xn = power_ascent_rows(M, space, cod, X[live], iters=3)
        moved = ~np.isclose(Xn, X[live]).all(axis=1)
        live, V, Xn = live[moved], V[moved], Xn[moved]
        if not live.size:
            break
        Dn = dist_rows(Xn)
        ok = Dn >= thr
        offer(live[ok], V[ok], Dn[ok], Xn[ok])
        gone = live[~ok]
        X_out[gone], D_out[gone], out[gone] = Xn[~ok], Dn[~ok], True
        live = live[ok]
        X[live], D[live] = Xn[ok], Dn[ok]
        if not live.size:
            break
    pulls = np.flatnonzero(out & (D >= thr))
    for rows, C, d in _itp_rows(X_out[pulls], X[pulls], D_out[pulls],
                                D[pulls], 30, space, dist_rows, eps):
        score(pulls[rows], C, d)
    return [(float(best_v[i]), float(best_d[i]), best_x[i]) if found[i]
            else None for i in range(R)]


def _finalize(mode, eps, candidates, seed, budget):
    best = best_of(candidates)
    if best is None:        # nothing scored lay eps - FEAS_TOL from the set
        return ProbeReport(mode=mode, epsilon=eps, eta_hat=float("inf"),
                           sentinel=True,
                           best_value=-float("inf"), seed=seed, budget=budget)
    vbest, dbest, xbest = best
    return ProbeReport(mode=mode, epsilon=eps,
                       eta_hat=max(0.0, 1.0 - vbest), sentinel=False,
                       best_value=vbest, witness=xbest,
                       witness_distance=dbest, seed=seed, budget=budget)


# ---------------------------------------------------------------------------
# numerical-radius probe
# ---------------------------------------------------------------------------

def aligned_state_functional(x, y, space):
    """The x* of best_state_functional(y, x, space): a functional supporting
    x with |<x*, y>| = face_sup(y, x, space).  The one-row call of the nu
    probe's state rows, best_state_functional_rows(Y, X, space)[1]."""
    return best_state_functional_rows(np.asarray(y)[None, :],
                                      np.asarray(x)[None, :], space)[1][0]


def _resolve_nu(T, nu_result, attaining):
    nr = nu_result if nu_result is not None else numerical_radius(T)
    if not nr.is_certified():
        raise HeuristicRefusalError("probe refused: heuristic radius")
    if abs(nr.value - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"probe needs nu(T) = 1, got {nr.value}")
    desc = attaining if attaining is not None else nu_attaining_states(T, nr)
    return nr, desc


def eta_probe_nu(T: OperatorExpr, eps: float,
                 budget: Optional[ProbeBudget] = None, seed: int = 0,
                 nu_result: Optional[NuResult] = None,
                 attaining: Optional[NuStatesDescriptor] = None,
                 extra_seeds=()) -> ProbeReport:
    """eps as in eta_probe_norm.  extra_seeds: iterable of StatePairs,
    (x, xstar) pairs or bare x vectors, checked as eta_probe_norm checks its
    seeds; a given xstar is checked as StatePair.validate checks it, with
    GeometryError.  A 2-tuple of two scalars is a bare x."""
    _check_eps(eps)
    nr, desc = _resolve_nu(T, nu_result, attaining)
    space, M = T.domain, to_matrix(T)
    seeds = _caller_seeds(space, extra_seeds, pairs=True) \
        + _diag_nu_seeds(T, eps)

    def score(X, xstars):
        Y, XS = _state_rows(M, X, space)
        given = [i for i, xs in enumerate(xstars) if xs is not None]
        XS[given] = _seed_rows(space, [xstars[i] for i in given])
        return (_modulus((XS * Y).sum(axis=1)), _pair_max_rows(desc, X, XS),
                lambda i: StatePair(X[i], XS[i], space))

    def restarts(budget):
        vals, X, XS = _nu_restarts(_ArrayKey(M), space, seed,
                                   budget.restarts, budget.iters)
        return _row_candidates(
            vals, _pair_max_rows(desc, X, XS), eps,
            lambda i: StatePair(X[i].copy(), XS[i].copy(), space))

    return _probe("nu", eps, budget, seed, space, desc, seeds, score,
                  _state_dist_rows(desc, M, space), restarts)


class _ArrayKey:
    """An array as an lru_cache argument: equal to another when their bytes,
    shape, dtype and strides are.  The strides count because a product
    through a transposed layout may round otherwise."""
    __slots__ = ("array", "_key")

    def __init__(self, array):
        self.array = array
        self._key = (array.tobytes(), array.shape, array.dtype.str,
                     array.strides)

    def take(self):
        """The array, which the key then forgets, so that a memo entry keeps
        the array's bytes but not the array."""
        array, self.array = self.array, None
        return array

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return self._key == other._key


@functools.lru_cache(maxsize=8)
def _nu_restarts(matrix, space, seed, restarts, iters):
    """The nu probe's restart batch: batch_sizes(restarts, 16) starts drawn
    by polish_source(seed, ...), polished on |<x*, Tx>| for max(10,
    iters // 100) rounds as the rows of one polish_rows call, matrix an
    _ArrayKey of to_matrix(T).  It reads neither eps nor the attaining set,
    so the probes of one operator at several eps share it.  Returns
    (values, X, XS) at the final points, all three read-only."""
    M = matrix.take()
    rounds = max(10, iters // 100)
    sizes = batch_sizes(restarts, 16)

    def state_rows(X):
        Y, XS = _state_rows(M, X, space)
        return _modulus((XS * Y).sum(axis=1)), XS

    X0, directions = polish_source(seed, sizes, space, rounds, 3)
    out = polish_rows(X0, state_rows, space, directions, rounds, tries=3,
                      step=0.4, min_step=1e-7)
    for a in out:
        a.flags.writeable = False
    return out


def _state_rows(M, X, space):
    """Y = M x for every row x of X, and XS, the best state of each pair."""
    Y = matvec_rows(M, X)
    return Y, best_state_functional_rows(Y, X, space)[1]


def _pair_max_rows(desc, X, XS):
    """max(dx, dxs) of every row pair's distances to desc, as Python's max."""
    dx, dxs = desc.pair_distance_rows(X, XS).T
    return np.where(dxs > dx, dxs, dx)


def _state_dist_rows(desc, M, space):
    """dist_rows of the nu probe: each row x is paired with its best state
    for M x, at the larger of the pair's two distances."""
    return lambda X: _pair_max_rows(desc, X, _state_rows(M, X, space)[1])


def _diag_nu_seeds(T, eps):
    """Profile-optimal feasible state seeds for diagonal operators."""
    profile = _diag_profile(T)
    if profile is None:
        return []
    space, j_idx, off_idx = profile
    p = space.p
    m = _group_cap(p, eps)
    x = np.zeros(space.dim, dtype=space.dtype)
    xs = np.zeros(space.dim, dtype=space.dtype)
    if p == INF:
        x[j_idx], x[off_idx], xs[j_idx], xs[off_idx] = 1.0, 1.0, m, 1.0 - m
    elif p == 1:
        x[j_idx], x[off_idx], xs[j_idx], xs[off_idx] = m, 1.0 - m, 1.0, 1.0
    else:
        q = p / (p - 1.0)
        x[j_idx], x[off_idx] = m ** (1.0 / p), (1.0 - m) ** (1.0 / p)
        xs[j_idx], xs[off_idx] = m ** (1.0 / q), (1.0 - m) ** (1.0 / q)
    return [(x, xs)]


# ---------------------------------------------------------------------------
# validation of closed-form eta candidates
# ---------------------------------------------------------------------------

#: how far a violator's recheck may sit from the probe's value and distance
RECHECK_TOL = 1e-9


@dataclass
class ValidationRow:
    """One eps of a validation.  refuted marks a probe violator whose
    recheck disagreed with the probe; such a row is not violated."""
    epsilon: float
    eta_value: float
    found_value: float
    found_distance: float
    sentinel: bool
    violated: bool
    refuted: bool = False


@dataclass
class ValidationReport:
    mode: str
    rows: list
    passed: bool
    violating_witness: object = None

    def describe(self) -> dict:
        return {"mode": self.mode, "passed": self.passed,
                "rows": [{"epsilon": r.epsilon, "eta": r.eta_value,
                          "found_value": r.found_value,
                          "found_distance": r.found_distance,
                          "sentinel": r.sentinel, "violated": r.violated}
                         for r in self.rows]}


def validate_eta(T: OperatorExpr, eta_fn, eps_grid, mode: str = "norm",
                 budget: Optional[ProbeBudget] = None, seed: int = 0,
                 tol: float = 1e-9, **probe_kwargs) -> ValidationReport:
    """Assert adversarially that no input beats the candidate modulus: for
    each eps, the probe must find no point with value > 1 - eta_fn(eps) at
    distance >= eps.  A found violator fails the report once its witness
    survives a recheck outside the probe's row kernels (_recheck): a
    witness whose rechecked value or distance is off the probe's by more
    than RECHECK_TOL is refuted, and its row is not violated.  The witness
    of the first violating eps is recorded as violating_witness."""
    probe = {"norm": eta_probe_norm, "nu": eta_probe_nu}.get(mode)
    if probe is None:
        raise GeometryError("mode must be 'norm' or 'nu'")
    rows = []
    witness = desc = None
    for eps in eps_grid:
        rep = probe(T, eps, budget=budget, seed=seed, **probe_kwargs)
        level = float(eta_fn(eps))
        violated = (not rep.sentinel) and \
            rep.best_value > 1.0 - level + tol
        refuted = False
        if violated:
            if desc is None:
                desc = _resolve_norm(T)[1] if mode == "norm" else \
                    _resolve_nu(T, probe_kwargs.get("nu_result"),
                                probe_kwargs.get("attaining"))[1]
            refuted = not all(
                math.isclose(got, want, rel_tol=0.0, abs_tol=RECHECK_TOL)
                for got, want in zip(_recheck(T, mode, rep.witness, desc),
                                     (rep.best_value, rep.witness_distance)))
            violated = not refuted
        if violated and witness is None:
            witness = rep.witness
        rows.append(ValidationRow(eps, level, rep.best_value,
                                  rep.witness_distance, rep.sentinel,
                                  violated, refuted))
    return ValidationReport(mode=mode, rows=rows,
                            passed=not any(r.violated for r in rows),
                            violating_witness=witness)


def _recheck(T, mode, witness, desc):
    """(value, distance) of a probe's witness, one vector at a time: the
    value ||T x|| or |<x*, T x>| by apply and the scalar norm or pair, the
    distance by the scalar distance or pair_distance of the attaining set
    desc, the larger of the pair's two."""
    if mode == "norm":
        return T.codomain.norm(apply(T, witness)), desc.distance(witness)
    x, xs = witness.x, witness.xstar
    return abs(pair(xs, apply(T, x))), max(desc.pair_distance(x, xs))
