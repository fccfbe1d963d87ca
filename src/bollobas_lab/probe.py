"""Adversarial, budgeted estimation of the stability modulus eta(eps, T).

The probe maximizes the value (||Tx|| or |<x*, Tx>|) over inputs that are
certifiably at least eps away from the attaining set, and reports

    eta_hat = 1 - best feasible value

which is an upper bound on the true modulus witnessed by a concrete point.
Feasibility is a hard filter through exact/lower-bound distance oracles, so
reported witnesses are valid by construction.  Absence of good witnesses is
only budget-relative; the report never claims a lower bound beyond that.

Both probes seed from diagonal profiles, caller-supplied points and the
feasibility boundary, then spend the budget in restart batches of 16 random
starts.  The batches run one after another through _search.run_batches:
batch b draws from the b-th SeedSequence(seed) child and the best feasible
point wins, the earliest on ties, so a fixed seed fixes every output.

Each batch is a row program over its starts, and returns what running the
starts one after another returns, bit for bit:

* norm: the starts are drawn in order, and their power-ascent paths are
  stepped as rows (_ascent_paths).  A walk over the starts in order then
  settles what the start-by-start loop would do: which points it considers,
  where each start ends, and which anchor each pullback bisects toward; the
  anchor, the last feasible point, carries across starts (_walk_paths).  All
  pullbacks are then bisected as one array (_pullback_rows).
* nu: each start's random_unit and its block of rounds x 3 trial
  directions are drawn start by start (_search.polish_draws); the starts
  are polished together (_search.polish_rows), and their final pairs are
  checked with one pair_distance_rows call.

The block is the layout at every budget: a start that stops early leaves
the rest of its block unused.  A polish halves its step of 0.4 on each
round without a gain and stops below 1e-7, which takes 22 halvings, so
below iters = 2200 (at most 21 rounds) no start stops early, and the blocks
are also the stream of polishes that draw each round's directions when
they reach it, one start after another.

The boundary seeds on flat spaces are bisected as one row batch: every
(base point, coordinate direction) pair is a row of one array, and each of
the 40 bisection steps is one row-form distance call (distance_rows, or
pair_distance_rows with best_state_functional_rows) over all rows.  The row
forms round each row as the one-vector oracles do, so the seeds are those
of one scalar bisection per pair.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._search import (best_of, first_best, matvec_rows, polish_draws,
                      polish_rows, power_ascent_rows, run_batches)
from .errors import GeometryError, HeuristicRefusalError, NotNormalizedError
from .membership import _group_cap, _norm_profile_mass
from .norm_attainment import norming_set, operator_norm
from .numerical_radius import (NuResult, NuStatesDescriptor, _modulus,
                               best_state_functional,
                               best_state_functional_rows,
                               nu_attaining_states, numerical_radius)
from .operators import Diagonal, OperatorExpr, Scale, to_matrix
from .spaces import INF, StatePair, SumSpace, lp_norm_rows, pair, random_unit

NORM_TOL = 1e-6
FEAS_TOL = 1e-12


@dataclass
class ProbeBudget:
    restarts: int = 256
    iters: int = 2000

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
    seeds = []
    if p == INF:
        x = np.zeros(space.dim, dtype=space.dtype)
        x[j_idx] = max(0.0, 1.0 - eps)
        x[off_idx] = 1.0
        seeds.append(x)
    else:
        A = _norm_profile_mass(p, eps)
        x = np.zeros(space.dim, dtype=space.dtype)
        x[j_idx] = A
        x[off_idx] = max(0.0, 1 - A ** p) ** (1.0 / p)
        seeds.append(x)
    return seeds


def _boundary_seeds(space, dist_rows, eps, base_points, rng):
    """Walk from attaining-set base points toward coordinate directions and
    bisect onto the feasibility boundary dist = eps; these seeds sit exactly
    where the constrained maximum lives.

    Every (base, direction) pair is one row of a single array, bisected in
    40 vector steps with its own bracket; dist_rows maps (R, dim) points to
    (R,) distances.  Seeds come base-major, then by direction; above 48
    dimensions, 48 directions drawn from rng stand for all of them."""
    d = space.dim
    idx = list(range(d)) if d <= 48 else \
        sorted(rng.choice(d, size=48, replace=False).tolist())
    E = np.eye(d, dtype=space.dtype)[idx]
    dirs = E if space.is_complex else np.stack([E, -E], axis=1).reshape(-1, d)
    dirs = dirs[dist_rows(dirs) >= eps - FEAS_TOL]
    if not len(base_points) or not len(dirs):
        return []
    bases = np.asarray(base_points, dtype=space.dtype)
    B = np.repeat(bases, len(dirs), axis=0)
    D = np.tile(dirs, (len(bases), 1))
    lo, hi = np.zeros(len(B)), np.ones(len(B))
    seeds = np.zeros_like(B)
    found = np.zeros(len(B), dtype=bool)
    for _ in range(40):
        t = (lo + hi) / 2.0
        cand = (1 - t)[:, None] * B + t[:, None] * D
        n = lp_norm_rows(cand, space.p)
        live = n != 0
        cand[live] /= n[live, None]
        feas = live & (dist_rows(cand) >= eps - FEAS_TOL)
        hi[feas], lo[~feas] = t[feas], t[~feas]
        seeds[feas] = cand[feas]
        found |= feas
    return list(seeds[found])


def eta_probe_norm(T: OperatorExpr, eps: float,
                   budget: Optional[ProbeBudget] = None, seed: int = 0,
                   extra_seeds=()) -> ProbeReport:
    """extra_seeds: iterable of x vectors, each checked once against the
    domain: a NaN or inf entry raises GeometryError, a wrong shape
    DimensionMismatchError."""
    budget = budget or ProbeBudget()
    nr, desc = _resolve_norm(T)
    space = T.domain
    cod = T.codomain
    M = to_matrix(T)

    def value_of(x):
        return cod.norm(M @ x)

    def dist_of(x):
        return desc.distance(x)

    candidates = []   # (value, distance, x), or None when infeasible
    max_dist_seen = 0.0

    def consider(x):
        """(value, distance, x) when x is feasible, else None."""
        nonlocal max_dist_seen
        d = dist_of(x)
        max_dist_seen = max(max_dist_seen, d)
        if d >= eps - FEAS_TOL:
            return (value_of(x), d, x)
        return None

    for s in _diag_norm_seeds(T, eps):
        candidates.append(consider(s))
    for s in extra_seeds:
        candidates.append(consider(space.check(s)))
    seed_rng = np.random.Generator(np.random.PCG64(seed))
    if not desc.is_empty and not isinstance(space, SumSpace):
        try:
            bases = desc.sample(seed_rng, 2)
        except Exception:
            bases = []
        for s in _boundary_seeds(space, desc.distance_rows, eps, bases,
                                 seed_rng):
            candidates.append(consider(s))

    iters = max(10, budget.iters // 100)
    starts = min(16, budget.restarts)

    def value_rows(X):
        return cod.norm_rows(matvec_rows(M, X))

    def batch(rng):
        nonlocal max_dist_seen
        X0 = np.array([random_unit(space, rng) for _ in range(starts)])
        P, D, counts = _ascent_paths(M, space, cod, X0, iters,
                                     desc.distance_rows, eps)
        events, pulls, farthest = _walk_paths(D, counts, eps)
        max_dist_seen = max(max_dist_seen, farthest)
        points = [ev for ev in events if isinstance(ev, tuple)]
        rows, steps = np.array(points, dtype=int).reshape(-1, 2).T
        vals = value_rows(P[rows, steps]) if points else []
        found = {ev: (float(v), float(D[ev]), P[ev])
                 for ev, v in zip(points, vals)}
        if pulls:
            hi, lo = (np.array(ends, dtype=int).T for ends in zip(*pulls))
            backs = _pullback_rows(P[hi[0], hi[1]], P[lo[0], lo[1]], eps,
                                   space, value_rows, desc.distance_rows)
            found.update(enumerate(backs))
        return best_of(found[ev] for ev in events)

    candidates.append(run_batches(seed, max(1, budget.restarts // 16), batch))
    return _finalize("norm", eps, candidates, max_dist_seen, seed, budget)


def _ascent_paths(M, space, cod, X0, steps, dist_rows, eps):
    """The points the norm probe's starts visit, all starts as rows: point
    k + 1 of a row is generic_power_ascent(point k, iters=3), until a step
    is allclose to its point or `steps` steps are taken.  Returns the points
    (R, K + 1, dim), their distances (R, K + 1) and the count of points of
    each row; entries past a row's count are stale.

    A row stops early once _walk_paths is sure to end its start at the
    newest point or before: the point is infeasible and a feasible point
    came before it, in this row or in an earlier one.  A row that meets an
    infeasible point before any feasible point is known is unsure: a later
    feasible point of an earlier row may end its start there, so its
    further steps may lie past the walk's end.  Steps taken while an unsure
    row is live run with floating-point warnings off, as the start-by-start
    loop never took them."""
    R = len(X0)
    X, live = X0, np.arange(R)
    dist = dist_rows(X0)
    pts, dists, counts = [X0], [dist], np.ones(R, dtype=int)
    seen = dist >= eps - FEAS_TOL           # a feasible point so far
    unsure = np.zeros(R, dtype=bool)
    for _ in range(steps):
        with np.errstate(all="ignore") if unsure[live].any() \
                else nullcontext():
            Xn = power_ascent_rows(M, space, cod, X[live], iters=3)[1]
            moved = ~np.isclose(Xn, X[live]).all(axis=1)
            live, Xn = live[moved], Xn[moved]
            if not live.size:
                break
            dist = np.full(R, np.nan)
            dist[live] = dist_rows(Xn)
        X = X.astype(np.result_type(X, Xn))
        X[live] = Xn
        pts.append(X)
        dists.append(dist)
        counts[live] += 1
        feas = dist[live] >= eps - FEAS_TOL
        own = seen[live]
        seen[live] |= feas
        earlier = (np.cumsum(seen) - seen)[live] > 0
        unsure[live[~feas & ~own & ~earlier]] = True
        done = (~feas & (own | earlier)) | (unsure[live] & earlier)
        live = live[~done]
        if not live.size:
            break
    return np.stack(pts, axis=1), np.stack(dists, axis=1), counts


def _walk_paths(D, counts, eps):
    """Replay the per-start loop of the norm probe over precomputed paths.

    Each start considers its points in order.  A feasible point is a
    candidate and becomes the anchor, which carries across starts; the
    first infeasible point after the start's first one, once an anchor
    exists, ends the start with a pullback toward the anchor.  Returns the
    events in order, (row, step) for a candidate and j for the j-th
    pullback, the pullbacks as ((row, step), anchor (row, step)) and the
    largest distance considered."""
    events, pulls, farthest, anchor = [], [], 0.0, None
    for s, count in enumerate(counts.tolist()):
        for k in range(count):
            d = float(D[s, k])
            farthest = max(farthest, d)
            if d >= eps - FEAS_TOL:
                events.append((s, k))
                anchor = (s, k)
            elif k and anchor is not None:
                events.append(len(pulls))
                pulls.append(((s, k), anchor))
                break
    return events, pulls, farthest


def _pullback_rows(X_hi, X_lo, eps, space, value_rows, dist_rows):
    """Binary search along the normalized segment from each infeasible
    high-value point X_hi[i] toward its feasible anchor X_lo[i], every
    segment a row, in 30 steps: the best feasible (value, distance, point)
    of each row, the earliest on ties, or None."""
    P = len(X_hi)
    lo, hi = np.zeros(P), np.ones(P)
    found = np.zeros(P, dtype=bool)
    best_v, best_d = np.zeros(P), np.zeros(P)
    best_x = np.zeros(X_hi.shape, dtype=np.result_type(X_hi, X_lo))
    for _ in range(30):
        t = (lo + hi) / 2.0
        C = (1 - t)[:, None] * X_hi + t[:, None] * X_lo
        n = space.norm_rows(C)
        feas = n != 0
        idx = np.nonzero(feas)[0]
        if idx.size:
            C = C[idx] / n[idx, None]
            d = dist_rows(C)
            ok = d >= eps - FEAS_TOL
            feas[idx[~ok]] = False
            if ok.any():
                rows, C, d = idx[ok], C[ok], d[ok]
                v = value_rows(C)
                win = ~found[rows] | (v > best_v[rows])
                rows = rows[win]
                best_v[rows], best_d[rows], best_x[rows] = v[win], d[win], \
                    C[win]
                found[rows] = True
        hi[feas], lo[~feas] = t[feas], t[~feas]
    return [(float(best_v[i]), float(best_d[i]), best_x[i]) if found[i]
            else None for i in range(P)]


def _finalize(mode, eps, candidates, max_dist_seen, seed, budget):
    best = best_of(candidates)
    if best is None:
        sentinel = max_dist_seen < eps - FEAS_TOL
        return ProbeReport(mode=mode, epsilon=eps, eta_hat=float("inf"),
                           sentinel=sentinel, best_value=-float("inf"),
                           witness=None, seed=seed, budget=budget)
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
    x with |<x*, y>| = face_sup(y, x, space)."""
    return best_state_functional(y, x, space)[1]


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
    """extra_seeds: iterable of StatePairs, (x, xstar) pairs or bare x
    vectors, checked as eta_probe_norm checks its seeds."""
    budget = budget or ProbeBudget()
    nr, desc = _resolve_nu(T, nu_result, attaining)
    space = T.domain
    M = to_matrix(T)

    def pair_value(x, xs):
        return abs(pair(xs, M @ x))

    def state_for(x):
        return aligned_state_functional(x, M @ x, space)

    candidates = []
    max_dist_seen = 0.0

    def consider_pair(x, xs):
        """(value, distance, pair) when (x, xs) is feasible, else None."""
        nonlocal max_dist_seen
        dx, dxs = desc.pair_distance(x, xs)
        d = max(dx, dxs)
        max_dist_seen = max(max_dist_seen, d)
        if d >= eps - FEAS_TOL:
            return (pair_value(x, xs), d, StatePair(x, xs, space))
        return None

    for s in extra_seeds:
        if isinstance(s, StatePair):
            s = (s.x, s.xstar)
        if isinstance(s, tuple) and len(s) == 2:
            candidates.append(consider_pair(space.check(s[0]),
                                            space.dual().check(s[1])))
        else:
            x = space.check(s)
            candidates.append(consider_pair(x, state_for(x)))
    for s in _diag_nu_seeds(T, eps):
        candidates.append(consider_pair(*s))
    seed_rng = np.random.Generator(np.random.PCG64(seed))
    if not desc.is_empty and not isinstance(space, SumSpace):
        try:
            bases = [sp.x for sp in desc.sample(seed_rng, 2)]
        except Exception:
            bases = []
        for s in _boundary_seeds(space, _state_dist_rows(desc, M, space), eps,
                                 bases, seed_rng):
            candidates.append(consider_pair(s, state_for(s)))

    iters = max(10, budget.iters // 100)
    starts = min(16, budget.restarts)

    def state_rows(X):
        Y = matvec_rows(M, X)
        XS = best_state_functional_rows(Y, X, space)[1]
        return _modulus((XS * Y).sum(axis=1)), XS

    def batch(rng):
        nonlocal max_dist_seen
        X0, D = polish_draws(rng, space, starts, iters, 3)
        vals, X, XS = polish_rows(X0, state_rows, space,
                                  lambda r, rows: D[rows, r], iters, tries=3,
                                  step=0.4, min_step=1e-7)
        dx, dxs = desc.pair_distance_rows(X, XS).T
        d = np.where(dxs > dx, dxs, dx)          # as Python max(dx, dxs)
        max_dist_seen = float(np.fmax.reduce(d, initial=max_dist_seen))
        feas = np.nonzero(d >= eps - FEAS_TOL)[0]
        if not feas.size:
            return None
        i = feas[first_best(vals[feas])]
        return (float(vals[i]), float(d[i]), StatePair(X[i], XS[i], space))

    candidates.append(run_batches(seed, max(1, budget.restarts // 16), batch))
    return _finalize("nu", eps, candidates, max_dist_seen, seed, budget)


def _state_dist_rows(desc, M, space):
    """dist_rows of the nu probe on a flat space: each row x is paired with
    its best state for M x, at the larger of the pair's two distances."""
    def dist_rows(X):
        Y = matvec_rows(M, X)
        _v, XS = best_state_functional_rows(Y, X, space)
        return desc.pair_distance_rows(X, XS).max(axis=1)
    return dist_rows


def _diag_nu_seeds(T, eps):
    """Profile-optimal feasible state seeds for diagonal operators."""
    profile = _diag_profile(T)
    if profile is None:
        return []
    space, j_idx, off_idx = profile
    p = space.p
    m = _group_cap(p, eps)
    seeds = []
    x = np.zeros(space.dim, dtype=space.dtype)
    xs = np.zeros(space.dim, dtype=space.dtype)
    if p == INF:
        x[j_idx] = 1.0
        x[off_idx] = 1.0
        xs[j_idx] = m
        xs[off_idx] = 1.0 - m
    elif p == 1:
        x[j_idx] = m
        x[off_idx] = 1.0 - m
        xs[j_idx] = 1.0
        xs[off_idx] = 1.0
    else:
        q = p / (p - 1.0)
        x[j_idx] = m ** (1.0 / p)
        x[off_idx] = (1.0 - m) ** (1.0 / p)
        xs[j_idx] = m ** (1.0 / q)
        xs[off_idx] = (1.0 - m) ** (1.0 / q)
    seeds.append((x, xs))
    return seeds


# ---------------------------------------------------------------------------
# validation of closed-form eta candidates
# ---------------------------------------------------------------------------

@dataclass
class ValidationRow:
    epsilon: float
    eta_value: float
    found_value: float
    found_distance: float
    sentinel: bool
    violated: bool


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
    distance >= eps.  A found violator fails the report (and is itself
    re-validated against the independent value oracle)."""
    rows = []
    witness = None
    for eps in eps_grid:
        if mode == "norm":
            rep = eta_probe_norm(T, eps, budget=budget, seed=seed,
                                 **probe_kwargs)
        elif mode == "nu":
            rep = eta_probe_nu(T, eps, budget=budget, seed=seed,
                               **probe_kwargs)
        else:
            raise GeometryError("mode must be 'norm' or 'nu'")
        level = float(eta_fn(eps))
        violated = (not rep.sentinel) and \
            rep.best_value > 1.0 - level + tol
        if violated and witness is None:
            witness = rep.witness
        rows.append(ValidationRow(eps, level, rep.best_value,
                                  rep.witness_distance, rep.sentinel,
                                  violated))
    return ValidationReport(mode=mode, rows=rows,
                            passed=not any(r.violated for r in rows),
                            violating_witness=witness)
