"""A gallery of structured operators with self-verifying claim lists.

Each entry materializes a named operator at a requested truncation dimension,
together with claims (small executable checks) tying its finite-dimensional
behavior to the symbolic membership verdicts: exact norms and radii, norming
and attaining sets, witness families with quantified decay, and probe bounds.

Entries are addressable as URIs:  gallery:G-BLOCK?dim=8&p=2
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._search import matvec_rows
from .errors import UnknownGalleryError
from .membership import (diag_norm_member, eta_const, functional_member,
                         rank1_l1_eta)
from .numerical_radius import (BlockPairStates, NuResult, NuStatesDescriptor,
                               _multistart_nu, nu_attaining_states,
                               numerical_radius)
from .norm_attainment import (NormingSetDescriptor, _sum_space_norm,
                              ball_rows, functional_norming_set, norming_set,
                              operator_norm, point_rows)
from .operators import (Delift, Dense, Diagonal, Lift, OperatorExpr, RankOne,
                        adjoint, functional, to_matrix)
from .probe import ProbeBudget, eta_probe_norm, eta_probe_nu, validate_eta
from .sequences import (BoundedTail, SequenceSpec, geometric_tail,
                        ratio_to_one_tail)
from .spaces import INF, PI_TOL, Space, StatePair, SumSpace, lp_norm, pair


@dataclass
class ClaimResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class GalleryEntry:
    gid: str
    params: dict
    expr: OperatorExpr
    claims: list = field(default_factory=list)   # (name, fn(entry) -> ClaimResult)
    norming: Optional[NormingSetDescriptor] = None
    attaining: Optional[NuStatesDescriptor] = None
    symbolic: Optional[SequenceSpec] = None
    nu_override: Optional[NuResult] = None       # closed-form radius, if any
    notes: str = ""

    def run_claims(self, seed: int = 0):
        out = []
        for name, fn in self.claims:
            try:
                out.append(fn(self, seed))
            except Exception as exc:                      # claim crash = failure
                out.append(ClaimResult(name, False, f"error: {exc!r}"))
        return out

    def describe(self) -> dict:
        return {"id": self.gid, "params": dict(self.params),
                "claims": [name for name, _ in self.claims],
                "notes": self.notes}


def _e(dim, i, dtype=np.float64):
    v = np.zeros(dim, dtype=dtype)
    v[i] = 1.0
    return v


def _check(name, cond, detail=""):
    return ClaimResult(name, bool(cond), detail)


# ---------------------------------------------------------------------------
# G-BLOCK: two-dimensional blocks diag(1 - 1/(2n), 1) stacked along lp
# ---------------------------------------------------------------------------

def _block_alphas(dim: int) -> np.ndarray:
    a = np.zeros(dim)
    for i in range(dim):
        n = i // 2 + 1
        a[i] = 1.0 - 1.0 / (2 * n) if i % 2 == 0 else 1.0
    return a


def _block_symbolic() -> SequenceSpec:
    def entries(k: int) -> float:
        n = (k - 1) // 2 + 1
        return 1.0 - 1.0 / (2 * n) if (k - 1) % 2 == 0 else 1.0

    tail = BoundedTail(sup_modulus=1.0, sup_attained=True,
                       unimodular_values=(1.0,), unimodular_finite=True,
                       sub_unit_sup=1.0, entries=entries)
    return SequenceSpec((), tail)


def make_block(dim: int, p: float = 2.0) -> GalleryEntry:
    if dim < 4 or dim % 2:
        raise UnknownGalleryError("G-BLOCK needs an even dim >= 4")
    space = Space(p, dim)
    expr = Diagonal(SequenceSpec(tuple(_block_alphas(dim))), space)
    N = dim // 2
    entry = GalleryEntry("G-BLOCK", {"dim": dim, "p": p}, expr,
                         symbolic=_block_symbolic())

    def c_norm(e, seed):
        nr = operator_norm(e.expr)
        ok = nr.certainty == "exact" and abs(nr.value - 1.0) == 0.0
        return _check("norm-one-attained", ok, f"value={nr.value}")

    def c_norming(e, seed):
        ns = norming_set(e.expr)
        want = tuple(range(1, dim, 2))
        ok = ns.J == want if p < INF else set(ns.J) == set(want)
        return _check("norming-set-second-coordinates", ok, f"J={ns.J}")

    def c_witness_distance(e, seed):
        ns = norming_set(e.expr)
        x = _e(dim, dim - 2)             # first coordinate of the last block
        val = e.expr.domain.norm(e.expr(x))
        d = ns.distance(x)
        want_val = 1.0 - 1.0 / (2 * N)
        ok = abs(val - want_val) < 1e-12 and d >= 1.0
        return _check("block-witness-distance", ok,
                      f"value={val}, distance={d}")

    def c_member(e, seed):
        v = diag_norm_member(e.symbolic, p if p < INF else "linf")
        return _check("membership-false", v.member is False, v.reason)

    def c_nu(e, seed):
        nr = numerical_radius(e.expr)
        return _check("nu-equals-norm-attained",
                      nr.certainty == "exact" and nr.value == 1.0,
                      f"nu={nr.value}")

    def c_probe_norm(e, seed):
        rep = eta_probe_norm(e.expr, 0.5, budget=ProbeBudget(32, 400),
                             seed=seed, extra_seeds=[_e(dim, dim - 2)])
        ok = rep.eta_hat <= 1.0 / (2 * N) + 1e-9
        return _check("probe-norm-decay", ok, f"eta_hat={rep.eta_hat}")

    def c_probe_nu(e, seed):
        x = _e(dim, dim - 2)
        xs = x.copy()                    # the basis is self-dual
        rep = eta_probe_nu(e.expr, 0.5, budget=ProbeBudget(32, 400),
                           seed=seed, extra_seeds=[(x, xs)])
        ok = rep.eta_hat <= 1.0 / (2 * N) + 1e-9
        return _check("probe-nu-decay", ok, f"eta_hat={rep.eta_hat}")

    entry.claims = [("norm-one-attained", c_norm),
                    ("norming-set-second-coordinates", c_norming),
                    ("block-witness-distance", c_witness_distance),
                    ("membership-false", c_member),
                    ("nu-equals-norm-attained", c_nu),
                    ("probe-norm-decay", c_probe_norm),
                    ("probe-nu-decay", c_probe_nu)]
    return entry


# ---------------------------------------------------------------------------
# G-RANK1-C0 / G-RANK1-L1 / G-BIDUAL: the geometric rank-one family
# ---------------------------------------------------------------------------

def _geometric_weights(dim: int) -> np.ndarray:
    return 0.5 ** np.arange(1, dim + 1)


def make_rank1_c0(dim: int) -> GalleryEntry:
    if dim < 2:
        raise UnknownGalleryError("G-RANK1-C0 needs dim >= 2")
    space = Space(INF, dim)
    w = _geometric_weights(dim)
    M = np.zeros((dim, dim))
    M[0, :] = w
    expr = Dense(M, space, space)
    entry = GalleryEntry("G-RANK1-C0", {"dim": dim}, expr,
                         symbolic=SequenceSpec((), geometric_tail(1.0, 0.5)),
                         notes="first-row averaging operator, unnormalized")

    def c_eval(e, seed):
        y = e.expr(np.ones(dim))
        want = np.zeros(dim)
        want[0] = 1.0 - 0.5 ** dim
        return _check("eval-ones", np.allclose(y, want, atol=1e-15),
                      f"(Tx)(1)={y[0]}")

    def c_norm(e, seed):
        nr = operator_norm(e.expr)
        ok = nr.certainty == "exact" and abs(nr.value - (1 - 0.5 ** dim)) < 1e-15
        return _check("norm-exact-below-one", ok, f"value={nr.value}")

    def c_adjoint(e, seed):
        out = adjoint(e.expr)(_e(dim, 0))
        return _check("adjoint-eval-e1", np.allclose(out, w, atol=1e-15),
                      "adjoint column matches the weights")

    def c_family(e, seed):
        ns = functional_norming_set(w, space)
        m = dim - 1
        x = np.zeros(dim)
        x[:m] = 1.0
        val = space.norm(e.expr(x))
        d = ns.distance(x)
        ok = abs(val - (1 - 0.5 ** m)) < 1e-15 and abs(d - 1.0) < 1e-12
        return _check("indicator-family-distance", ok,
                      f"value={val}, distance={d}")

    def c_member(e, seed):
        v = functional_member(e.symbolic, "c0")
        return _check("symbolic-nonmember", v.member is False, v.reason)

    entry.claims = [("eval-ones", c_eval),
                    ("norm-exact-below-one", c_norm),
                    ("adjoint-eval-e1", c_adjoint),
                    ("indicator-family-distance", c_family),
                    ("symbolic-nonmember", c_member)]
    return entry


def make_rank1_l1(dim: int) -> GalleryEntry:
    if dim < 2:
        raise UnknownGalleryError("G-RANK1-L1 needs dim >= 2")
    space = Space(1.0, dim)
    w = _geometric_weights(dim)
    what = w / w.sum()
    expr = RankOne(y=what, xstar=_e(dim, 0), dom=space, cod=space)
    entry = GalleryEntry("G-RANK1-L1", {"dim": dim}, expr,
                         notes="normalized truncation of the column "
                               "averaging operator on l1")

    def c_norm(e, seed):
        nr = operator_norm(e.expr)
        wit_ok = nr.witness is not None and \
            abs(space.norm(e.expr(nr.witness)) - 1.0) < 1e-12
        return _check("norm-one-witness-e1",
                      nr.certainty == "exact" and abs(nr.value - 1.0) < 1e-15
                      and wit_ok, f"value={nr.value}")

    def c_norming(e, seed):
        ns = norming_set(e.expr)
        d = ns.distance(_e(dim, 2) if dim > 2 else _e(dim, 1))
        return _check("norming-orbit-e1", abs(d - 2.0) < 1e-12,
                      f"distance={d}")

    def c_validate(e, seed):
        r = rank1_l1_eta()
        rep = validate_eta(e.expr, r.eta, [k / 10 for k in range(1, 10)],
                           mode="norm", budget=ProbeBudget(32, 300),
                           seed=seed)
        return _check("validate-eta-half", rep.passed,
                      f"rows={len(rep.rows)}")

    def c_repair(e, seed):
        r = rank1_l1_eta()
        rng = np.random.Generator(np.random.PCG64(seed))
        ok = True
        for _ in range(200):
            eps = rng.uniform(0.05, 1.0)
            x = rng.normal(size=dim)
            x = x / lp_norm(x, 1)
            if space.norm(e.expr(x)) > 1 - r.eta(eps):
                y = r.repair(x)
                if not (abs(space.norm(e.expr(y)) - 1.0) < 1e-12 and
                        lp_norm(x - y, 1) < eps + 1e-12):
                    ok = False
                    break
        return _check("repair-map", ok)

    def c_nu(e, seed):
        nr = numerical_radius(e.expr)
        wit = nr.witness
        val = abs(pair(wit.xstar, e.expr(wit.x)))
        return _check("nu-one-attained",
                      nr.certainty == "exact" and abs(nr.value - 1.0) < 1e-15
                      and abs(val - 1.0) < 1e-12, f"nu={nr.value}")

    def c_nu_witness_family(e, seed):
        desc = nu_attaining_states(e.expr)
        n0 = dim - 1
        z0 = np.zeros(dim)
        z0[:n0] = 1.0
        dx, dxs = desc.pair_distance(_e(dim, 0), z0)
        return _check("nu-witness-dual-distance", dxs >= 1.0 - 1e-12,
                      f"dxstar={dxs}")

    def c_lifted(e, seed):
        lifted, attaining, seeds = lifted_rank1_l1(dim)
        nu = NuResult(1.0, "exact", None, "lift-profile")
        rep = eta_probe_nu(lifted, 0.5, budget=ProbeBudget(32, 300),
                           seed=seed, nu_result=nu, attaining=attaining,
                           extra_seeds=seeds)
        bound = (0.5 ** (dim - 1) - 0.5 ** dim) / (1 - 0.5 ** dim)
        ok = rep.eta_hat <= bound + 1e-12
        return _check("lifted-nu-decay", ok,
                      f"eta_hat={rep.eta_hat}, bound={bound}")

    entry.claims = [("norm-one-witness-e1", c_norm),
                    ("norming-orbit-e1", c_norming),
                    ("validate-eta-half", c_validate),
                    ("repair-map", c_repair),
                    ("nu-one-attained", c_nu),
                    ("nu-witness-dual-distance", c_nu_witness_family),
                    ("lifted-nu-decay", c_lifted)]
    return entry


class LiftedRank1NuStates(BlockPairStates):
    """Attaining pairs of the lifted normalized rank-one operator on the
    two-block l1 sum under outer 1: x = (s e_1, 0), x* = ((s, free), r ones),
    s, r = +-1."""

    def __init__(self, dim: int):
        self.dim = dim
        blk = Space(1.0, dim)
        l1, sup = blk.norm_rows, blk.dual().norm_rows
        e1, free = _e(dim, 0), np.arange(dim) > 0
        options = [([point_rows(sgn * e1, l1, None), l1],
                    [point_rows(sgn * e1, sup, free),
                     point_rows(r * np.ones(dim), sup, None)])
                   for sgn in (1.0, -1.0) for r in (1.0, -1.0)]
        super().__init__(SumSpace((blk, blk), 1.0), options)

    def sample(self, rng, count: int = 1):
        out = []
        for _ in range(count):
            sgn = rng.choice([-1.0, 1.0])
            r = rng.choice([-1.0, 1.0])
            x = self.space.join([sgn * _e(self.dim, 0), np.zeros(self.dim)])
            xs = self.space.join([sgn * _e(self.dim, 0),
                                  r * np.ones(self.dim)])
            out.append(StatePair(x, xs, self.space))
        return out

    def describe(self):
        return {"kind": "lifted-rank-one-pairs", "outer_p": 1.0}


def lifted_rank1_l1(dim: int):
    """The lifted normalized rank-one operator on the outer-1 sum, its
    attaining descriptor, and the finite-indicator witness seeds."""
    base = make_rank1_l1(dim).expr
    lifted = Lift(base, 1.0)
    desc = LiftedRank1NuStates(dim)
    s = lifted.sum_space
    seeds = []
    n0 = dim - 1
    w = s.join([_e(dim, 0), np.zeros(dim)])
    zstar = np.zeros(dim)
    zstar[:n0] = 1.0
    wstar = s.join([_e(dim, 0), zstar])
    seeds.append((w, wstar))
    return lifted, desc, seeds


def make_bidual(dim: int) -> GalleryEntry:
    if dim < 2:
        raise UnknownGalleryError("G-BIDUAL needs dim >= 2")
    space = Space(INF, dim)
    w = _geometric_weights(dim)
    what = w / w.sum()
    M = np.zeros((dim, dim))
    M[0, :] = what
    expr = Dense(M, space, space)
    entry = GalleryEntry("G-BIDUAL", {"dim": dim}, expr,
                         symbolic=SequenceSpec((), geometric_tail(1.0, 0.5)),
                         notes="normalized row operator on the sup-norm "
                               "truncation")

    def c_norm(e, seed):
        nr = operator_norm(e.expr)
        ones = np.ones(dim)
        ok = nr.certainty == "exact" and abs(nr.value - 1.0) < 1e-12 and \
            abs(space.norm(e.expr(ones)) - 1.0) < 1e-12
        return _check("norm-one-at-ones", ok, f"value={nr.value}")

    def c_norming(e, seed):
        ns = norming_set(e.expr)
        m = dim - 1
        z = np.zeros(dim)
        z[:m] = 1.0
        d = ns.distance(z)
        return _check("norming-needs-unimodular", abs(d - 1.0) < 1e-12,
                      f"distance={d}")

    def c_decay(e, seed):
        m = dim - 1
        z = np.zeros(dim)
        z[:m] = 1.0
        rep = eta_probe_norm(e.expr, 0.5, budget=ProbeBudget(32, 300),
                             seed=seed, extra_seeds=[z])
        bound = (0.5 ** m - 0.5 ** dim) / (1 - 0.5 ** dim)
        return _check("indicator-decay", rep.eta_hat <= bound + 1e-12,
                      f"eta_hat={rep.eta_hat}, bound={bound}")

    def c_member(e, seed):
        v = functional_member(e.symbolic, "linf")
        return _check("symbolic-nonmember", v.member is False, v.reason)

    entry.claims = [("norm-one-at-ones", c_norm),
                    ("norming-needs-unimodular", c_norming),
                    ("indicator-decay", c_decay),
                    ("symbolic-nonmember", c_member)]
    return entry


# ---------------------------------------------------------------------------
# G-SKEW: skew pairs plus a small symmetric trailing block (real Hilbert)
# ---------------------------------------------------------------------------

def _skew_alpha(k: int) -> float:
    return 2.0 if k == 1 else 0.5 ** k


def make_skew(dim: int, alpha: float = 1.0, ell: int = 2) -> GalleryEntry:
    if dim - ell < 2 or (dim - ell) % 2 or ell < 1:
        raise UnknownGalleryError(
            "G-SKEW needs dim - ell even and >= 2, ell >= 1")
    space = Space(2.0, dim)
    M = np.zeros((dim, dim))
    pairs = (dim - ell) // 2
    for k in range(1, pairs + 1):
        nk, mk = 2 * (k - 1), 2 * (k - 1) + 1
        M[mk, nk] = -_skew_alpha(k)
        M[nk, mk] = _skew_alpha(k)
    for n in range(dim - ell, dim):
        M[n, n] = alpha
    expr = Dense(M, space, space)
    entry = GalleryEntry("G-SKEW", {"dim": dim, "alpha": alpha, "ell": ell},
                         expr, notes="skew rotation pairs plus an aligned "
                                     "trailing block")
    J3 = list(range(dim - ell, dim))

    def c_norm(e, seed):
        nr = operator_norm(e.expr)
        want = max(2.0, alpha)
        return _check("norm-is-two", abs(nr.value - want) < 1e-9,
                      f"value={nr.value}")

    def c_nu(e, seed):
        nr = numerical_radius(e.expr)
        ok = nr.certainty == "exact" and abs(nr.value - alpha) < 1e-12
        wit_ok = abs(abs(pair(nr.witness.xstar, e.expr(nr.witness.x)))
                     - alpha) < 1e-12
        return _check("nu-is-alpha-attained", ok and wit_ok,
                      f"nu={nr.value}")

    def c_states(e, seed):
        desc = nu_attaining_states(e.expr)
        B = desc.bases[0]
        span_ok = B.shape[1] == ell and \
            np.allclose(np.abs(B[J3, :]).sum(), np.abs(B).sum())
        return _check("attaining-set-is-trailing-block", span_ok,
                      f"basis-dim={B.shape[1]}")

    def c_uniform(e, seed):
        desc = nu_attaining_states(e.expr)
        rng = np.random.Generator(np.random.PCG64(seed))
        ok = True
        for _ in range(300):
            eps = rng.uniform(0.05, 1.0)
            x = rng.normal(size=dim)
            x[J3] += rng.uniform(1.0, 6.0)
            x /= np.linalg.norm(x)
            slack = 1.0 - abs(x @ (M @ x))
            if slack < eps * eps / 4.0:
                dx, dxs = desc.pair_distance(x, x)
                if max(dx, dxs) >= eps:
                    ok = False
                    break
        return _check("uniform-quadratic-eta", ok)

    def c_gap(e, seed):
        return _check("nu-below-norm",
                      numerical_radius(e.expr).value <
                      operator_norm(e.expr).value - 0.5)

    entry.claims = [("norm-is-two", c_norm),
                    ("nu-is-alpha-attained", c_nu),
                    ("attaining-set-is-trailing-block", c_states),
                    ("uniform-quadratic-eta", c_uniform),
                    ("nu-below-norm", c_gap)]
    return entry


# ---------------------------------------------------------------------------
# G-SHIFT: the nilpotent right shift
# ---------------------------------------------------------------------------

def shift_matrix(dim: int) -> np.ndarray:
    R = np.zeros((dim, dim))
    R[np.arange(1, dim), np.arange(dim - 1)] = 1.0
    return R


def make_shift(dim: int) -> GalleryEntry:
    if dim < 2:
        raise UnknownGalleryError("G-SHIFT needs dim >= 2")
    space = Space(2.0, dim)
    expr = Dense(shift_matrix(dim), space, space)
    entry = GalleryEntry("G-SHIFT", {"dim": dim}, expr,
                         notes="finite right shift; the radius climbs to one "
                               "while the norm stays one")

    def c_nu(e, seed):
        nr = numerical_radius(e.expr)
        want = np.cos(np.pi / (dim + 1))
        return _check("nu-cos-formula", abs(nr.value - want) < 1e-8,
                      f"nu={nr.value}, cos={want}")

    def c_norm(e, seed):
        nr = operator_norm(e.expr)
        return _check("norm-one", abs(nr.value - 1.0) < 1e-12)

    def c_below(e, seed):
        return _check("radius-below-norm",
                      numerical_radius(e.expr).value < 1.0)

    def c_monotone(e, seed):
        if dim == 2:
            return _check("monotone-in-dim", True, "base case")
        prev = numerical_radius(make_shift(dim - 1).expr).value
        cur = numerical_radius(e.expr).value
        return _check("monotone-in-dim", cur > prev,
                      f"{prev} -> {cur}")

    entry.claims = [("nu-cos-formula", c_nu),
                    ("norm-one", c_norm),
                    ("radius-below-norm", c_below),
                    ("monotone-in-dim", c_monotone)]
    return entry


# ---------------------------------------------------------------------------
# G-CORNER: the first-coordinate corner operator on a two-block Hilbert sum
# ---------------------------------------------------------------------------

class CornerNuStates(BlockPairStates):
    """Attaining pairs of the corner operator: (x, y) = (s e_1, free-or-zero),
    (x*, y*) = (s e_1, free-or-zero), with the free block set by the outer
    norm (y free in the ball for outer inf; y* free for outer one)."""

    def __init__(self, dim: int, outer_p: float):
        self.dim = dim
        self.outer_p = outer_p
        blk = Space(2.0, dim)
        zero, ball = blk.norm_rows, ball_rows(blk.norm_rows)
        options = []
        for sgn in (1.0, -1.0):
            e = point_rows(sgn * _e(dim, 0), blk.norm_rows, None)
            options.append(([e, zero], [e, ball]) if outer_p == 1
                           else ([e, ball], [e, zero]))
        super().__init__(SumSpace((blk, blk), outer_p), options)

    def sample(self, rng, count: int = 1):
        out = []
        for _ in range(count):
            sgn = rng.choice([-1.0, 1.0])
            zero = np.zeros(self.dim)
            free = rng.normal(size=self.dim)
            free = free / max(1.0, np.linalg.norm(free))
            x = self.space.join([sgn * _e(self.dim, 0),
                                 zero if self.outer_p == 1 else 0.5 * free])
            xs = self.space.join([sgn * _e(self.dim, 0),
                                  0.5 * free if self.outer_p == 1 else zero])
            out.append(StatePair(x, xs, self.space))
        return out

    def describe(self):
        return {"kind": "corner-pairs", "outer_p": self.outer_p}


def corner_matrix(dim: int) -> np.ndarray:
    M = np.zeros((2 * dim, 2 * dim))
    M[0, 0] = 1.0
    return M


def make_corner(dim: int, outer_p: float = 1.0) -> GalleryEntry:
    if dim < 2:
        raise UnknownGalleryError("G-CORNER needs dim >= 2")
    if outer_p not in (1.0, INF):
        raise UnknownGalleryError("G-CORNER outer_p must be 1 or inf")
    blk = Space(2.0, dim)
    space = SumSpace((blk, blk), outer_p)
    expr = Dense(corner_matrix(dim), space, space)
    corner_wit = StatePair(
        np.concatenate([_e(dim, 0), np.zeros(dim)]),
        np.concatenate([_e(dim, 0), np.zeros(dim)]), space)
    entry = GalleryEntry("G-CORNER", {"dim": dim, "outer_p": outer_p}, expr,
                         attaining=CornerNuStates(dim, outer_p),
                         nu_override=NuResult(1.0, "exact", corner_wit,
                                              "corner-closed-form"),
                         notes="keeps only the first coordinate of the first "
                               "block; squeezing it back across the sum "
                               "kills it")

    def c_nu(e, seed):
        x = space.join([_e(dim, 0), np.zeros(dim)])
        xs = space.join([_e(dim, 0), np.zeros(dim)])
        sp = StatePair(x, xs, space)
        sp.validate()
        val = abs(pair(xs, e.expr(x)))
        ms = _multistart_nu(to_matrix(e.expr), space, 32, 120, seed)
        return _check("nu-one-attained",
                      abs(val - 1.0) < 1e-12 and ms.value <= 1.0 + 1e-9,
                      f"witness value={val}, search={ms.value}")

    def c_delift(e, seed):
        D = Delift(e.expr)
        return _check("delift-zero", np.all(to_matrix(D) == 0.0))

    def c_repair(e, seed):
        return _check("repair-bounds",
                      *_corner_repair_bounds(space, to_matrix(e.expr), seed))

    def c_norm(e, seed):
        nr = _sum_space_norm(to_matrix(e.expr), space, space, 32, 120, seed)
        x = space.join([_e(dim, 0), np.zeros(dim)])
        won = space.norm(e.expr(x))
        return _check("norm-one", abs(won - 1.0) < 1e-12
                      and nr.value <= 1.0 + 1e-9,
                      f"witness={won}, search={nr.value}")

    entry.claims = [("nu-one-attained", c_nu),
                    ("delift-zero", c_delift),
                    ("repair-bounds", c_repair),
                    ("norm-one", c_norm)]
    return entry


def _corner_repair_bounds(space, M, seed):
    """(passed, detail) of the corner's repair-bounds claim: 200 random pairs
    near the attaining set, drawn one after another from PCG64(seed), each
    with its eps.  Every valid state of value above 1 - eps must repair onto
    a value-one state within eps + sqrt(2 eps) in x and sqrt(2 eps) in x*;
    detail names the first that does not, and a repair that is no state
    raises GeometryError.  The pairs are checked as rows, each rounded as
    the check of that pair alone."""
    dim, outer_p = space.components[0].dim, space.outer_p
    rng = np.random.Generator(np.random.PCG64(seed))
    eps = np.empty(200)
    X, XS = np.empty((200, space.dim)), np.empty((200, space.dim))
    for i in range(200):
        eps[i] = rng.uniform(0.005, 0.5)
        X[i], XS[i] = _corner_near_pair(rng, space, eps[i])
    # the pairs that are states of value above 1 - eps
    keep = _state_rows_ok(space, X, XS)
    keep[keep] = ~(np.abs((XS[keep] * matvec_rows(M, X[keep])).sum(axis=1))
                   <= 1 - eps[keep])
    X, XS, eps = X[keep], XS[keep], eps[keep]
    RX, RXS = corner_repair_rows(X, XS, dim, outer_p)
    vv = np.abs((RXS * matvec_rows(M, RX)).sum(axis=1))
    dx = space.norm_rows(X - RX)
    dxs = space.dual().norm_rows(XS - RXS)
    bad = ~_state_rows_ok(space, RX, RXS)
    miss = ~((np.abs(vv - 1.0) < 1e-9) & (dx <= eps + np.sqrt(2 * eps) + 1e-9)
             & (dxs <= np.sqrt(2 * eps) + 1e-9))
    hit = np.flatnonzero(bad | miss)
    if not hit.size:
        return True, ""
    i = hit[0]
    if bad[i]:
        StatePair(RX[i], RXS[i], space).validate()      # raises its error
    return False, (f"eps={float(eps[i])}, dx={float(dx[i])}, "
                   f"dxs={float(dxs[i])}")


def _state_rows_ok(space, X, XS):
    """StatePair.validate's verdict on every row pair (X[i], XS[i]): finite,
    with ||x||, ||x*|| and <x*, x> each 1 within PI_TOL."""
    ok = np.isfinite(X).all(axis=1) & np.isfinite(XS).all(axis=1)
    for v in (space.norm_rows(X), space.dual().norm_rows(XS),
              (XS * X).sum(axis=1)):
        ok &= ~(np.abs(v - 1.0) > PI_TOL)
    return ok


def _corner_near_pair(rng, space, eps):
    """A random pair (x, x*) concentrated near the corner's attaining set,
    not always a state."""
    dim = space.components[0].dim
    x = rng.normal(size=dim) * eps * 0.3
    x[0] = 1.0
    x = x / np.linalg.norm(x)
    if space.outer_p == 1:
        t = rng.uniform(0, eps * 0.3)
        y = rng.normal(size=dim)
        y = t * y / np.linalg.norm(y)
        xs_y = y / t if t > 0 else np.zeros(dim)
        return space.join([(1 - t) * x, y]), space.join([x, xs_y])
    y = rng.normal(size=dim)
    y = rng.uniform(0, 1) * y / np.linalg.norm(y)
    return space.join([x, y]), space.join([x, np.zeros(dim)])


def corner_repair_rows(X, XS, dim: int, outer_p: float):
    """corner_repair of every real row pair (X[i], XS[i]), each rounded as
    the pair alone: the first coordinates become their signs, and the
    second block that is free under outer_p (x* for outer 1, x otherwise)
    is clipped to the unit ball, the other zeroed."""
    RX, RXS = np.zeros_like(X), np.zeros_like(XS)
    RX[:, 0] = X[:, 0] / np.abs(X[:, 0])
    RXS[:, 0] = XS[:, 0] / np.abs(XS[:, 0])
    src, out = (XS, RXS) if outer_p == 1 else (X, RX)
    free = src[:, dim:]
    # each row's norm as np.linalg.norm takes it, by a dot product
    norms = np.sqrt((free[:, None, :] @ free[:, :, None])[:, 0, 0])
    out[:, dim:] = free / np.maximum(1.0, norms)[:, None]
    return RX, RXS


def corner_repair(sp: StatePair, dim: int, outer_p: float) -> StatePair:
    """The constructive repair onto the corner's attaining set: the one-row
    call of corner_repair_rows."""
    RX, RXS = corner_repair_rows(sp.x[None, :], sp.xstar[None, :], dim,
                                 outer_p)
    return StatePair(RX[0], RXS[0], sp.space)


# ---------------------------------------------------------------------------
# G-DIAG-ZSTAR / G-FUNC-LINF: the two functional counterexample families
# ---------------------------------------------------------------------------

def zstar_coeffs(dim: int) -> np.ndarray:
    return np.array([1.0] + [k / (k + 1.0) for k in range(1, dim)])


def make_diag_zstar(dim: int) -> GalleryEntry:
    if dim < 2:
        raise UnknownGalleryError("G-DIAG-ZSTAR needs dim >= 2")
    space = Space(1.0, dim)
    f = zstar_coeffs(dim)
    expr = functional(f, space)
    entry = GalleryEntry("G-DIAG-ZSTAR", {"dim": dim}, expr,
                         symbolic=SequenceSpec((1.0,), ratio_to_one_tail()),
                         notes="ratios-to-one functional on the l1 "
                               "truncation; only the basis orbit norms it")

    def c_norm(e, seed):
        nr = operator_norm(e.expr)
        return _check("norm-one-at-e1",
                      nr.certainty == "exact" and nr.value == 1.0)

    def c_orbit(e, seed):
        ns = norming_set(e.expr)
        d = ns.distance(_e(dim, dim - 1))
        return _check("norming-orbit-distance-two", abs(d - 2.0) < 1e-12,
                      f"distance={d}")

    def c_no_const(e, seed):
        c = 2.0 / dim                      # any constant below 1/dim-ish fails
        rep = validate_eta(e.expr, eta_const(c), [0.5], mode="norm",
                           budget=ProbeBudget(16, 200), seed=seed,
                           extra_seeds=[_e(dim, dim - 1)])
        return _check("no-constant-eta", not rep.passed,
                      f"constant {c} violated as expected")

    def c_decay(e, seed):
        rep = eta_probe_norm(e.expr, 0.5, budget=ProbeBudget(16, 200),
                             seed=seed, extra_seeds=[_e(dim, dim - 1)])
        return _check("decay-one-over-dim", rep.eta_hat <= 1.0 / dim + 1e-12,
                      f"eta_hat={rep.eta_hat}")

    def c_member(e, seed):
        v = functional_member(e.symbolic, 1.0)
        return _check("membership-false", v.member is False, v.reason)

    entry.claims = [("norm-one-at-e1", c_norm),
                    ("norming-orbit-distance-two", c_orbit),
                    ("no-constant-eta", c_no_const),
                    ("decay-one-over-dim", c_decay),
                    ("membership-false", c_member)]
    return entry


def make_func_linf(dim: int) -> GalleryEntry:
    if dim < 2:
        raise UnknownGalleryError("G-FUNC-LINF needs dim >= 2")
    space = Space(INF, dim)
    w = _geometric_weights(dim)
    what = w / w.sum()
    expr = functional(what, space)
    entry = GalleryEntry("G-FUNC-LINF", {"dim": dim}, expr,
                         symbolic=SequenceSpec((), geometric_tail(1.0, 0.5)),
                         notes="summable positive functional on the sup-norm "
                               "truncation; norming points are unimodular "
                               "everywhere")

    def c_norm(e, seed):
        nr = operator_norm(e.expr)
        ok = nr.certainty == "exact" and abs(nr.value - 1.0) < 1e-12
        return _check("norm-one-at-ones", ok)

    def c_orbit(e, seed):
        ns = norming_set(e.expr)
        m = dim - 1
        z = np.zeros(dim)
        z[:m] = 1.0
        d = ns.distance(z)
        return _check("norming-distance-one", abs(d - 1.0) < 1e-12,
                      f"distance={d}")

    def c_decay(e, seed):
        m = dim - 1
        z = np.zeros(dim)
        z[:m] = 1.0
        rep = eta_probe_norm(e.expr, 0.5, budget=ProbeBudget(16, 200),
                             seed=seed, extra_seeds=[z])
        bound = (0.5 ** m - 0.5 ** dim) / (1 - 0.5 ** dim)
        return _check("indicator-decay", rep.eta_hat <= bound + 1e-12,
                      f"eta_hat={rep.eta_hat}")

    def c_member(e, seed):
        v = functional_member(e.symbolic, "linf")
        return _check("membership-false", v.member is False, v.reason)

    entry.claims = [("norm-one-at-ones", c_norm),
                    ("norming-distance-one", c_orbit),
                    ("indicator-decay", c_decay),
                    ("membership-false", c_member)]
    return entry


# ---------------------------------------------------------------------------
# registry and URI addressing
# ---------------------------------------------------------------------------

_BUILDERS: dict = {
    "G-BLOCK": (make_block, {"dim": int, "p": float}),
    "G-RANK1-C0": (make_rank1_c0, {"dim": int}),
    "G-RANK1-L1": (make_rank1_l1, {"dim": int}),
    "G-BIDUAL": (make_bidual, {"dim": int}),
    "G-SKEW": (make_skew, {"dim": int, "alpha": float, "ell": int}),
    "G-SHIFT": (make_shift, {"dim": int}),
    "G-CORNER": (make_corner, {"dim": int, "outer_p": float}),
    "G-DIAG-ZSTAR": (make_diag_zstar, {"dim": int}),
    "G-FUNC-LINF": (make_func_linf, {"dim": int}),
}

GALLERY_IDS = tuple(sorted(_BUILDERS))


def gallery(gid: str, dim: int, **params) -> GalleryEntry:
    """Build a gallery entry by id at the requested truncation dimension."""
    if gid not in _BUILDERS:
        raise UnknownGalleryError(f"unknown gallery id {gid!r}")
    builder, sig = _BUILDERS[gid]
    kwargs = {"dim": dim}
    for k, v in params.items():
        if k not in sig:
            raise UnknownGalleryError(f"{gid} does not take parameter {k!r}")
        kwargs[k] = sig[k](v)
    return builder(**kwargs)


def parse_gallery_uri(uri: str) -> GalleryEntry:
    """gallery:G-BLOCK?dim=8&p=2 -> the built entry."""
    if not uri.startswith("gallery:"):
        raise UnknownGalleryError(f"not a gallery URI: {uri!r}")
    rest = uri[len("gallery:"):]
    parsed = urllib.parse.urlsplit(rest)
    gid = parsed.path
    params = {}
    for k, v in urllib.parse.parse_qsl(parsed.query):
        params[k] = float("inf") if v in ("inf", "Infinity") else v
    if "dim" not in params:
        raise UnknownGalleryError("gallery URIs need a dim parameter")
    dim = int(params.pop("dim"))
    return gallery(gid, dim, **params)
