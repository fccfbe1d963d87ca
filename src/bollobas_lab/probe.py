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
starts (power ascent with pullback for norms, a random-direction polish for
states).  The batches run one after another through _search.run_batches:
batch b draws from the b-th SeedSequence(seed) child and the best feasible
point wins, the earliest on ties, so a fixed seed fixes every output.

The boundary seeds on flat spaces are bisected as one row batch: every
(base point, coordinate direction) pair is a row of one array, and each of
the 40 bisection steps is one row-form distance call (distance_rows, or
pair_distance_rows with best_state_functional_rows) over all rows.  The row
forms round each row as the one-vector oracles do, so the seeds are those
of one scalar bisection per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._search import (best_of, dual_align_vec, generic_power_ascent,
                      random_polish, run_batches)
from .errors import GeometryError, HeuristicRefusalError, NotNormalizedError
from .membership import _group_cap
from .norm_attainment import (NormingSetDescriptor, NormResult, norming_set,
                              operator_norm)
from .numerical_radius import (NuResult, NuStatesDescriptor,
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


def _resolve_norm(T, norm_result, norming, assume_norm_one):
    nr = norm_result if norm_result is not None else operator_norm(T)
    if not nr.is_certified():
        raise HeuristicRefusalError("probe refused: heuristic norm")
    if not assume_norm_one and abs(nr.value - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"probe needs ||T|| = 1, got {nr.value}")
    desc = norming if norming is not None else norming_set(T, nr)
    return nr, desc


def _pullback(value_of, dist_of, x_hi, x_lo, eps, space, steps: int = 30):
    """Binary search along the normalized segment between a feasible anchor
    x_lo and an infeasible high-value point x_hi; returns the best feasible
    (value, distance, point) found, or None."""
    best = None
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        t = (lo + hi) / 2.0
        cand = (1 - t) * x_hi + t * x_lo
        n = space.norm(cand)
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
        lo, hi = 0.0, 1.0
        for _ in range(80):
            A = (lo + hi) / 2.0
            d = ((1 - A) ** p + max(0.0, 1 - A ** p)) ** (1.0 / p)
            if d >= eps:
                lo = A
            else:
                hi = A
        A = lo
        x = np.zeros(space.dim, dtype=space.dtype)
        x[j_idx] = A
        x[off_idx] = max(0.0, 1 - A ** p) ** (1.0 / p)
        seeds.append(x)
    return seeds


def _boundary_seeds(space, dist_rows, eps, base_points, rng,
                    max_dirs: int = 48):
    """Walk from attaining-set base points toward coordinate directions and
    bisect onto the feasibility boundary dist = eps; these seeds sit exactly
    where the constrained maximum lives.

    Every (base, direction) pair is one row of a single array, bisected in
    40 vector steps with its own bracket; dist_rows maps (R, dim) points to
    (R,) distances.  Seeds come base-major, then by direction."""
    d = space.dim
    idx = list(range(d)) if d <= max_dirs else \
        sorted(rng.choice(d, size=max_dirs, replace=False).tolist())
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
                   norm_result: Optional[NormResult] = None,
                   norming: Optional[NormingSetDescriptor] = None,
                   extra_seeds=(), assume_norm_one: bool = False) -> ProbeReport:
    budget = budget or ProbeBudget()
    nr, desc = _resolve_norm(T, norm_result, norming, assume_norm_one)
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
        candidates.append(consider(np.asarray(s, dtype=space.dtype)))
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

    def batch(rng):
        # the anchor, the last feasible point, carries across the batch
        best = anchor = None
        for _ in range(min(16, budget.restarts)):
            x = random_unit(space, rng)
            c = consider(x)
            if c is not None:
                best, anchor = best_of([best, c]), x
            # ascent toward the unconstrained maximum, tracking feasibility
            for _ in range(iters):
                _v, xn = generic_power_ascent(M, space, cod, x, iters=3)
                if np.allclose(xn, x):
                    break
                x = xn
                c = consider(x)
                if c is not None:
                    best, anchor = best_of([best, c]), x
                elif anchor is not None:
                    best = best_of([best, _pullback(value_of, dist_of, x,
                                                    anchor, eps, space)])
                    break
        return best

    candidates.append(run_batches(seed, max(1, budget.restarts // 16), batch))
    return _finalize("norm", eps, candidates, max_dist_seen, seed, budget)


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
    """x* supporting x with <x*, y> close to face_sup(y, x, space).

    Exact for flat spaces and for sums of blocks with 1 < p < inf.  Blocks
    with p in {1, inf} are aligned one at a time, not jointly, so on such
    sums the value can fall short of face_sup."""
    if not isinstance(space, SumSpace):
        _v, xs = best_state_functional(y, x, space)
        return xs
    blocks_x = space.split(x)
    blocks_y = space.split(y)
    norms = np.array([c.norm(b) for c, b in zip(space.components, blocks_x)])
    op = space.outer_p
    if op == INF:
        best, best_i, best_xs = -1.0, None, None
        for i, (c, bx, by, a) in enumerate(zip(space.components, blocks_x,
                                               blocks_y, norms)):
            if abs(a - 1.0) <= 1e-9:
                v, xs = best_state_functional(by, bx, c)
                if v > best:
                    best, best_i, best_xs = v, i, xs
        out = [np.zeros(c.dim, dtype=space.dtype) for c in space.components]
        if best_i is not None:
            out[best_i] = best_xs
        return space.join(out)
    weights = np.ones_like(norms) if op == 1 else norms ** (op - 1.0)
    # fixed centers first, then align free blocks to the total's phase
    parts, centers = [], []
    for c, bx, by, a, w in zip(space.components, blocks_x, blocks_y,
                               norms, weights):
        if a == 0:
            parts.append(None)
            centers.append(0j)
        else:
            v, xs = best_state_functional(by, bx / a, c)
            xs = w * xs
            parts.append(xs)
            centers.append(complex((xs * by).sum()))
    total = sum(centers)
    psi = total / abs(total) if total != 0 else 1.0
    out = []
    for c, by, a, prt in zip(space.components, blocks_y, norms, parts):
        if prt is not None:
            out.append(prt)
        elif op == 1 and c.norm(by) > 0:
            out.append(psi * dual_align_vec(by, c))
        else:
            out.append(np.zeros(c.dim, dtype=space.dtype))
    return space.join(out)


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
    """extra_seeds: iterable of (x, xstar) pairs or bare x vectors."""
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
            candidates.append(consider_pair(s.x, s.xstar))
        elif isinstance(s, tuple) and len(s) == 2:
            candidates.append(consider_pair(np.asarray(s[0]),
                                            np.asarray(s[1])))
        else:
            x = np.asarray(s)
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

    def state_value(x):
        xs = state_for(x)
        return pair_value(x, xs), xs

    def polished_start(rng):
        _v, x, xs = random_polish(random_unit(space, rng), state_value, rng,
                                  space, iters, tries=3, step=0.4,
                                  min_step=1e-7)
        return consider_pair(x, xs)

    def batch(rng):
        return best_of(polished_start(rng)
                       for _ in range(min(16, budget.restarts)))

    candidates.append(run_batches(seed, max(1, budget.restarts // 16), batch))
    return _finalize("nu", eps, candidates, max_dist_seen, seed, budget)


def _state_dist_rows(desc, M, space):
    """dist_rows of the nu probe on a flat space: each row x is paired with
    its best state for M x, at the larger of the pair's two distances."""
    def dist_rows(X):
        Y = (M @ X[:, :, None])[:, :, 0]      # M @ x for every row x
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
