"""Adversarial, budgeted estimation of the stability modulus eta(eps, T).

The probe maximizes the value (||Tx|| or |<x*, Tx>|) over inputs that are
certifiably at least eps away from the attaining set, and reports

    eta_hat = 1 - best feasible value

which is an upper bound on the true modulus witnessed by a concrete point.
Feasibility is a hard filter through exact/lower-bound distance oracles, so
reported witnesses are valid by construction.  Absence of good witnesses is
only budget-relative; the report never claims a lower bound beyond that.

Both probes are modes of one pipeline, _probe, which runs a whole grid of
eps as one probe and returns each eps's report bit for bit as a grid of
that eps alone gives it (eta_probe_norm and eta_probe_nu are the grids of
one eps; validate_eta and the CLI probe run one grid per operator and
dim).  A mode checks its inputs and supplies its seeds at each eps, how
seed rows are scored, the distance rows its boundary seeds are searched
on, and its restart stage; the pipeline adds the boundary seeds, scores
every seed, merges the restarts' best and finalizes the reports.  The
restarts are batches of 16 random starts, ceil(restarts / 16) of them, the
last one with the remainder.  Batch b draws from the b-th
SeedSequence(seed) child and the best feasible point wins, the earliest on
ties, so a fixed seed fixes every output.

What no eps reads runs once per grid: the norm or radius and its
attaining set, the caller seeds' checks, the base points of the boundary
seeds and the distances of every segment end, the norm probe's starts,
and the nu probe's restart batch with its pair distances.  An eps then
only cuts rows at eps - FEAS_TOL.  The eps run in chunks of as many as
keep their restarts and boundary segments, times the dim, within
_search.DRAW_SCALARS scalars, and at least one; a chunk's boundary seeds
are one search, its seed rows one scoring call, and its norm walk one walk
whose pullbacks are one search.

Each mode runs every batch as the rows of one program, and returns what
running the batches one after another, and their starts one after
another, returns, bit for bit:

* norm: the starts are drawn batch by batch, one random_unit_rows call
  each (_search.restart_starts), and all of them walk as the rows of one
  power ascent (_norm_walk).  The path of a start reads no eps, so it
  walks once for a chunk; at each eps the start ends at a step allclose to
  its point, after iters steps, or at its first step infeasible at that
  eps, and in the last case it pulls back toward the point before that
  step when that point is feasible; the pullbacks of every eps are the
  rows of one search.  At each eps, each start's feasible points, then its
  pullback's, are folded into its first best as they come, so a start
  keeps its current point and, per eps, its best and its infeasible step,
  never its path.
* nu: each start's random_unit and its block of rounds x 3 trial
  directions are drawn start by start, batch b from its generator
  (_search.polish_source).  The starts of every batch are polished as the
  rows of one call (_search.polish_rows), and their final pairs are checked
  with one pair_distance_rows call.  The best feasible row, the earliest on
  ties, is the winner best_of over the batches run one call each picks.
  The polish reads neither eps nor the attaining set, so it runs once per
  matrix, domain, seed, restarts and iters, and its read-only rows are
  kept for the probes that follow (_nu_restarts, an lru_cache of 8), such
  as the one-eps validations of one operator; the pair distances are
  computed once per grid.

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
(eps, base point, coordinate direction) triple of a chunk is a row of one
array, and each step of the search is one row-form distance call
(distance_rows, or pair_distance_rows with best_state_functional_rows)
over the rows still searching.  The boundary seeds and the pullbacks share
one root-finder, _itp_rows: ITP (interpolate, truncate, project; Oliveira
and Takahashi, ACM TOMS 47(1), 2020) on g(t) = dist(C(t)) - (eps -
FEAS_TOL) along each row's normalized segment C(t), each row at its own
eps.  A step takes the secant root of the row's bracket, nudged toward the
midpoint and kept near it, so no row takes more than one step beyond the
bisection to the same resolution (2^-40 for the seeds, 2^-30 for the
pullbacks), and rows with a smooth distance converge superlinearly; a row
also stops once a step lands feasible within FEAS_TOL of its threshold.
The row forms round each row as the one-vector oracles do, and no row
reads another, so the seeds are those of one scalar search per pair and
eps.

The seeds are one row program too: all of them, at every eps of a chunk,
are the rows of one array, at each eps in the order diagonal-profile,
caller, boundary seeds (nu: caller, diagonal, boundary), scored by one call
of each row kernel, and each row is one candidate of its eps in that order,
None when its distance is below eps - FEAS_TOL.
Caller seeds off the unit sphere by more than PI_TOL, or pairs failing the
checks of StatePair.validate, raise GeometryError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _search
from ._search import (batch_sizes, best_of, first_best, matvec_rows,
                      polish_rows, polish_source, power_ascent_rows,
                      restart_starts)
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


def _segment_ends(space, dist_rows, base_points, rng):
    """The ends of the boundary-seed segments, which no eps reads: (bases,
    d0, dirs, d1), the attaining-set base points and the coordinate
    directions +-e_k (e_k on complex spaces), each with its distance.
    Above 48 dimensions, 48 coordinates drawn from rng stand for all of
    them.  dist_rows maps (R, dim) points to (R,) distances."""
    d = space.dim
    idx = list(range(d)) if d <= 48 else \
        sorted(rng.choice(d, size=48, replace=False).tolist())
    E = np.eye(d, dtype=space.dtype)[idx]
    dirs = E if space.is_complex else np.stack([E, -E], axis=1).reshape(-1, d)
    bases = _seed_rows(space, base_points)
    return bases, dist_rows(bases), dirs, dist_rows(dirs)


def _boundary_seeds(space, dist_rows, eps, ends):
    """Walk from attaining-set base points toward coordinate directions and
    search along each segment for the feasibility boundary dist = eps; these
    seeds sit exactly where the constrained maximum lives.

    eps is a sequence and ends are _segment_ends'.  At each eps, every
    infeasible base and feasible direction make a segment, and the
    segments of every eps are the rows of a single array, searched by one
    _itp_rows call, each row at its own eps, to a bracket of 2^-40 (at
    most 41 steps); the seed of a row is the last feasible point the
    search reached.  Returns (k, seed) pairs, eps k's seeds base-major,
    then by direction, and the eps in order."""
    bases, d0, dirs, d1 = ends
    eps = np.asarray(eps, dtype=float)
    thr = eps[:, None, None] - FEAS_TOL
    k, b, j = np.nonzero((d0[:, None] < thr) & (d1 >= thr))
    seeds = np.zeros((len(k), space.dim), dtype=space.dtype)
    found = np.zeros(len(k), dtype=bool)
    for rows, C, _d in _itp_rows(bases[b], dirs[j], d0[b], d1[j], 40, space,
                                 dist_rows, eps[k]):
        seeds[rows], found[rows] = C, True
    return list(zip(k[found].tolist(), seeds[found]))


def _itp_rows(X0, X1, D0, D1, bits, space, dist_rows, eps):
    """ITP root-finding of g(t) = dist(C(t)) - (eps - FEAS_TOL) along the
    normalized segments C(t) from X0[i] (t = 0) toward X1[i] (t = 1), every
    segment a row with its own bracket [lo, hi], g(lo) < 0 <= g(hi); D0 and
    D1 are the distances of the ends, g(0) < 0 <= g(1).  eps is one number
    for every row or one per row, so the searches of several eps are the
    rows of one call.

    A step at step index j takes the secant root x_f of the bracket, moves it
    by 0.2 (hi - lo)^2 toward the midpoint (not past it), and projects it
    into 2^-j - (hi - lo)/2 of the midpoint (Oliveira and Takahashi, ACM
    TOMS 47(1), 2020, with kappa1 = 0.2, kappa2 = 2, n0 = 1).  A point of
    norm zero counts as at distance 0, so infeasible.  A row stops when
    hi - lo <= 2^-bits, or when a step lands feasible within FEAS_TOL of its
    threshold; no row takes more than bits + 1 steps.  Yields, for each
    step, the feasible rows, their normalized points and their distances."""
    thr = np.broadcast_to(np.subtract(eps, FEAS_TOL), len(X0))
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
        g = -thr[live]
        g[nz] = d - thr[live[nz]]
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
    distance, witness(i)) at a distance >= eps - FEAS_TOL, else None; eps is
    one number for every row or one per row."""
    thr = np.broadcast_to(np.subtract(eps, FEAS_TOL), len(vals))
    return [(float(v), float(d), witness(i)) if d >= t else None
            for i, (v, d, t) in enumerate(zip(vals, dist, thr))]


def _probe(mode, eps_grid, budget, seed, space, desc, seeds, score, dist_rows,
           restarts):
    """The stages both probes share, over the list eps_grid: one report per
    eps, in order, each the report of that eps alone, bit for bit.  A mode
    supplies seeds(eps), its seeds at one eps as (x, x* or None) rows;
    score(X, xstars) -> (values, distances, witness) of seed rows; the
    dist_rows of its boundary seeds, which follow its own seeds off sums;
    and its restart stage, restarts(budget) -> stage, where stage(eps)
    gives the best restart candidate of each eps of a chunk, or None, which
    comes after the seeds.  The segment ends and the stage's set-up run
    once; a chunk of eps (see the module docstring) makes one
    _boundary_seeds call, one score call and one stage call."""
    budget = budget or ProbeBudget()
    seed_rng = np.random.Generator(np.random.PCG64(seed))
    ends = None
    if not desc.is_empty and not isinstance(space, SumSpace):
        try:
            bases = [b.x if isinstance(b, StatePair) else b
                     for b in desc.sample(seed_rng, 2)]
        except (NotImplementedError, GeometryError):
            bases = []
        if bases:
            ends = _segment_ends(space, dist_rows, bases, seed_rng)
    stage = restarts(budget)
    rows = budget.restarts + (0 if ends is None else
                              len(ends[0]) * len(ends[2]))
    size = max(1, _search.DRAW_SCALARS // (rows * space.dim))
    reports = []
    for at in range(0, len(eps_grid), size):
        chunk = eps_grid[at:at + size]
        own = [seeds(eps) for eps in chunk]
        if ends is not None:
            for k, x in _boundary_seeds(space, dist_rows, chunk, ends):
                own[k].append((x, None))
        flat = [s for row in own for s in row]
        candidates = []
        if flat:
            X = _seed_rows(space, [x for x, _ in flat])
            vals, dist, witness = score(X, [xs for _, xs in flat])
            candidates = _row_candidates(
                vals, dist, np.repeat(np.asarray(chunk, dtype=float),
                                      [len(row) for row in own]), witness)
        candidates = iter(candidates)
        for eps, row, best in zip(chunk, own, stage(chunk)):
            mine = [next(candidates) for _ in row]
            reports.append(_finalize(mode, eps, mine + [best], seed, budget))
    return reports


def _norm_grid(T, eps_grid, budget=None, seed=0, extra_seeds=()):
    """eta_probe_norm at every eps of eps_grid as one probe: (the norming
    set, the reports in grid order)."""
    eps_grid = list(eps_grid)
    for eps in eps_grid:
        _check_eps(eps)
    nr, desc = _resolve_norm(T)
    space, cod, M = T.domain, T.codomain, to_matrix(T)
    caller = _caller_seeds(space, extra_seeds)

    def seeds(eps):
        return [(x, None) for x in _diag_norm_seeds(T, eps)] + caller

    def score(X, _xstars):
        return (cod.norm_rows(matvec_rows(M, X)), desc.distance_rows(X),
                X.__getitem__)

    def restarts(budget):
        X0 = restart_starts(space, seed, batch_sizes(budget.restarts, 16))
        steps = max(10, budget.iters // 100)
        return lambda eps: [best_of(c) for c in _norm_walk(
            M, space, cod, X0, steps, desc.distance_rows, eps)]

    return desc, _probe("norm", eps_grid, budget, seed, space, desc, seeds,
                        score, desc.distance_rows, restarts)


def eta_probe_norm(T: OperatorExpr, eps: float,
                   budget: Optional[ProbeBudget] = None, seed: int = 0,
                   extra_seeds=()) -> ProbeReport:
    """eps must be finite and > 0, else GeometryError.  extra_seeds:
    iterable of x vectors, each checked once against the domain: a wrong
    shape raises DimensionMismatchError, and a NaN or inf entry or a norm
    off 1 by more than PI_TOL raises GeometryError.  The probe of the grid
    of one eps."""
    return _norm_grid(T, [eps], budget, seed, extra_seeds)[1][0]


def _norm_walk(M, space, cod, X0, steps, dist_rows, eps):
    """The norm probe's starts X0 at each eps of the sequence eps, all as
    rows of one walk: point k + 1 of a start is generic_power_ascent(point
    k, iters=3), which no eps reads.  At each eps a start ends before a
    step allclose to its point, after `steps` steps, or at its first step
    infeasible at that eps; in the last case, when the point before that
    step is feasible, it pulls back from the step toward that point.  A
    start walks while it has not ended at some eps, and the pullbacks of
    every eps are the rows of one _itp_rows search, each at its own eps, to
    a bracket of 2^-30 (at most 31 steps).  At each eps, each feasible
    point, then each feasible step of the pullback, is folded into its
    start's first best as it comes.  A step is scored by the value
    power_ascent_rows returns for it; only the starts, which the ascent
    normalizes, and the pullback's points are scored afresh.  Returns, for
    each eps, one candidate per start, the best (value, distance, point) it
    reached, the earliest on ties, or None."""
    eps = np.asarray(eps, dtype=float)
    K, R = len(eps), len(X0)
    thr = eps[:, None] - FEAS_TOL
    # the state of (eps k, start i) sits at row k R + i
    best_v, best_d = np.zeros(K * R), np.zeros(K * R)
    best_x = np.zeros((K * R, X0.shape[1]), dtype=X0.dtype)
    found = np.zeros(K * R, dtype=bool)

    def offer(rows, vals, dists, points):
        win = ~found[rows] | (vals > best_v[rows])
        rows = rows[win]
        best_v[rows], best_d[rows], best_x[rows] = vals[win], dists[win], \
            points[win]
        found[rows] = True

    def offer_at(mask, starts, vals, dists, points):
        """Offer each point j of starts at every eps k of mask[k, j]."""
        k, j = np.nonzero(mask)
        offer(k * R + starts[j], vals[j], dists[j], points[j])

    X, D = X0.copy(), dist_rows(X0)
    ok = D >= thr
    feas = np.flatnonzero(ok.any(axis=0))
    if feas.size:
        offer_at(ok[:, feas], feas, cod.norm_rows(matvec_rows(M, X0[feas])),
                 D[feas], X0[feas])
    alive = np.ones((K, R), dtype=bool)
    pulls = []          # (rows, steps, points before them, their distances)
    live = np.arange(R)
    for _ in range(steps):
        V, Xn = power_ascent_rows(M, space, cod, X[live], iters=3)
        moved = ~np.isclose(Xn, X[live]).all(axis=1)
        live, V, Xn = live[moved], V[moved], Xn[moved]
        if not live.size:
            break
        Dn = dist_rows(Xn)
        ok, was = Dn >= thr, alive[:, live]
        offer_at(was & ok, live, V, Dn, Xn)
        k, j = np.nonzero(was & ~ok & (D[live] >= thr))
        pulls.append((k * R + live[j], Xn[j], X[live[j]], Dn[j], D[live[j]]))
        alive[:, live] = was & ok
        keep = alive[:, live].any(axis=0)
        live = live[keep]
        X[live], D[live] = Xn[keep], Dn[keep]
        if not live.size:
            break
    rows, X_out, X_in, D_out, D_in = (np.concatenate(a) for a in zip(
        (np.zeros(0, dtype=int), X0[:0], X0[:0], D[:0], D[:0]), *pulls))
    for r, C, d in _itp_rows(X_out, X_in, D_out, D_in, 30, space, dist_rows,
                             eps[rows // R]):
        if r.size:
            offer(rows[r], cod.norm_rows(matvec_rows(M, C)), d, C)
    return [[(float(best_v[r]), float(best_d[r]), best_x[r]) if found[r]
             else None for r in range(k * R, (k + 1) * R)] for k in range(K)]


def _finalize(mode, eps, candidates, seed, budget):
    """The report of eps from its candidates; the witness is a copy, so a
    report keeps no row array of the probe alive."""
    best = best_of(candidates)
    if best is None:        # nothing scored lay eps - FEAS_TOL from the set
        return ProbeReport(mode=mode, epsilon=eps, eta_hat=float("inf"),
                           sentinel=True,
                           best_value=-float("inf"), seed=seed, budget=budget)
    vbest, dbest, xbest = best
    xbest = StatePair(xbest.x.copy(), xbest.xstar.copy(), xbest.space) \
        if isinstance(xbest, StatePair) else xbest.copy()
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


def _nu_grid(T, eps_grid, budget=None, seed=0, nu_result=None,
             attaining=None, extra_seeds=()):
    """eta_probe_nu at every eps of eps_grid as one probe: (the attaining
    states, the reports in grid order)."""
    eps_grid = list(eps_grid)
    for eps in eps_grid:
        _check_eps(eps)
    nr, desc = _resolve_nu(T, nu_result, attaining)
    space, M = T.domain, to_matrix(T)
    caller = _caller_seeds(space, extra_seeds, pairs=True)

    def seeds(eps):
        return caller + _diag_nu_seeds(T, eps)

    def score(X, xstars):
        Y, XS = _state_rows(M, X, space)
        given = [i for i, xs in enumerate(xstars) if xs is not None]
        XS[given] = _seed_rows(space, [xstars[i] for i in given])
        return (_modulus((XS * Y).sum(axis=1)), _pair_max_rows(desc, X, XS),
                lambda i: StatePair(X[i], XS[i], space))

    def restarts(budget):
        vals, X, XS = _nu_restarts(_ArrayKey(M), space, seed,
                                   budget.restarts, budget.iters)
        dist = _pair_max_rows(desc, X, XS)

        def best(eps):
            feas = np.flatnonzero(dist >= eps - FEAS_TOL)
            if not feas.size:
                return None
            i = feas[first_best(vals[feas])]
            return float(vals[i]), float(dist[i]), StatePair(X[i], XS[i],
                                                             space)

        return lambda eps: [best(e) for e in eps]

    return desc, _probe("nu", eps_grid, budget, seed, space, desc, seeds,
                        score, _state_dist_rows(desc, M, space), restarts)


def eta_probe_nu(T: OperatorExpr, eps: float,
                 budget: Optional[ProbeBudget] = None, seed: int = 0,
                 nu_result: Optional[NuResult] = None,
                 attaining: Optional[NuStatesDescriptor] = None,
                 extra_seeds=()) -> ProbeReport:
    """eps as in eta_probe_norm.  extra_seeds: iterable of StatePairs,
    (x, xstar) pairs or bare x vectors, checked as eta_probe_norm checks its
    seeds; a given xstar is checked as StatePair.validate checks it, with
    GeometryError.  A 2-tuple of two scalars is a bare x.  The probe of the
    grid of one eps."""
    return _nu_grid(T, [eps], budget, seed, nu_result, attaining,
                    extra_seeds)[1][0]


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
    distance >= eps.  Every eps must pass the probes' check and every
    eta_fn(eps) be a finite number, else GeometryError naming the eps,
    before any probe runs; the grid is then one probe (_norm_grid or
    _nu_grid).  A found violator fails the report once its witness
    survives a recheck outside the probe's row kernels (_recheck) against
    the probe's own attaining set: a witness whose rechecked value or
    distance is off the probe's by more than RECHECK_TOL is refuted, and
    its row is not violated.  The witness of the first violating eps is
    recorded as violating_witness."""
    probe = {"norm": _norm_grid, "nu": _nu_grid}.get(mode)
    if probe is None:
        raise GeometryError("mode must be 'norm' or 'nu'")
    eps_grid, levels = list(eps_grid), []
    for eps in eps_grid:
        _check_eps(eps)
        levels.append(float(eta_fn(eps)))
        if not math.isfinite(levels[-1]):
            raise GeometryError(f"eta_fn({eps}) = {levels[-1]} is not a "
                                f"finite number")
    desc, reports = probe(T, eps_grid, budget, seed, **probe_kwargs) \
        if eps_grid else (None, [])
    rows = []
    witness = None
    for eps, level, rep in zip(eps_grid, levels, reports):
        violated = (not rep.sentinel) and \
            rep.best_value > 1.0 - level + tol
        refuted = False
        if violated:
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
