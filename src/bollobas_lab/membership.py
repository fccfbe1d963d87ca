"""Exact membership predicates for the pointwise-stability classes of
norm-one operators, constructive eta-transfer formulas, and counterexample
witness generators.

The diagonal predicates are decided purely symbolically from a SequenceSpec:
J = {n : |alpha_n| = 1}, the off-J supremum, and the phase content of J.
Verdicts carry machine-checkable certificates; negative verdicts carry a
witness recipe that materializes refuting inputs at any truncation dimension,
together with the expected value-slack decay and a guaranteed distance floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError, NotNormalizedError
from .sequences import SequenceSpec, projection_spec
from .spaces import (INF, Space, conjugate_exponent, lp_norm,
                     modulus_convexity)

# ---------------------------------------------------------------------------
# space families
# ---------------------------------------------------------------------------


def family_key(family):
    """Normalize a family designator: 'c0', 'linf', or a float p in [1, inf).

    'c0' and 'linf' share finite truncations but differ symbolically (their
    witness semantics for unattained suprema differ in the limit).
    """
    if isinstance(family, str):
        if family in ("c0", "linf"):
            return family, INF
        raise GeometryError(f"unknown space family {family!r}")
    p = float(family)
    if not (1.0 <= p < INF):
        raise GeometryError(f"lp family needs 1 <= p < inf, got {p}")
    return "lp", p


# ---------------------------------------------------------------------------
# verdicts and witness recipes
# ---------------------------------------------------------------------------

@dataclass
class WitnessRecipe:
    """Materializes refuting inputs at a requested truncation dimension.

    generate(dim) returns vectors (norm mode) or (x, xstar) pairs (nu mode);
    slack_at(dim) is the value gap 1 - value of the best witness; witnesses
    are guaranteed to sit at least distance_floor away from the attaining set
    of the truncated operator.
    """

    kind: str
    description: str
    generate: Callable[[int], list]
    slack_at: Callable[[int], float]
    distance_floor: float
    min_dim: int = 2

    def describe(self) -> dict:
        return {"kind": self.kind, "description": self.description,
                "distance_floor": self.distance_floor, "min_dim": self.min_dim}


@dataclass
class Verdict:
    member: Optional[bool]              # True / False / None (undecided or n/a)
    theorem: str
    certificate: dict = field(default_factory=dict)
    witness: Optional[WitnessRecipe] = None
    reason: str = ""

    def to_json(self) -> dict:
        return {"member": self.member, "theorem": self.theorem,
                "certificate": _jsonable(self.certificate),
                "witness_recipe": None if self.witness is None
                else self.witness.describe(),
                "reason": self.reason}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if obj is INF:
        return "inf"
    return obj


def _certificate(spec: SequenceSpec) -> dict:
    finite, phases = spec.phases_on_J()
    return {
        "prefix_J": spec.prefix_J(),
        "tail_has_J": spec.tail_has_unimodular(),
        "J_is_everything": spec.J_is_everything(),
        "off_J_sup": spec.off_J_sup(),
        "phases_finite": finite,
        "phases": None if phases is None else list(phases),
    }


# ---------------------------------------------------------------------------
# witness generators for diagonal specs
# ---------------------------------------------------------------------------

def _truncated_J_mask(alphas: np.ndarray) -> np.ndarray:
    mods = np.abs(alphas)
    return mods >= mods.max() * (1 - 1e-12)


def _norm_witnesses(spec: SequenceSpec, kind: str) -> WitnessRecipe:
    """Basis vectors sitting off the truncated norming support with moduli
    approaching one."""

    def best_off(dim: int):
        alphas = spec.materialize(dim)
        mask = _truncated_J_mask(alphas)
        mods = np.abs(alphas)
        mods[mask] = -1.0
        j = int(mods.argmax())
        return alphas, j, float(np.abs(alphas[j]))

    def generate(dim: int):
        alphas, j, _ = best_off(dim)
        e = np.zeros(dim, dtype=alphas.dtype)
        e[j] = 1.0
        return [e]

    def slack_at(dim: int) -> float:
        # measured against the truncation renormalized to norm one
        alphas, _j, m = best_off(dim)
        return 1.0 - m / float(np.abs(alphas).max())

    return WitnessRecipe(kind=kind,
                         description="basis vector at the best coordinate "
                                     "outside the truncated norming support",
                         generate=generate, slack_at=slack_at,
                         distance_floor=1.0,
                         min_dim=len(spec.prefix) + 2)


def _phase_pair_witnesses(spec: SequenceSpec, p: float) -> WitnessRecipe:
    """Two-point states mixing the two closest distinct phases on J."""

    q = conjugate_exponent(p)

    def best_pair(dim: int):
        alphas = spec.materialize(dim)
        mask = _truncated_J_mask(alphas) & (np.abs(np.abs(alphas) - 1.0) < 1e-9)
        idx = np.nonzero(mask)[0]
        best = None
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                if abs(alphas[i] - alphas[j]) < 1e-12:
                    continue
                v = abs((alphas[i] + alphas[j]) / 2.0)
                if best is None or v > best[0]:
                    best = (v, int(i), int(j))
        return alphas, best

    def generate(dim: int):
        alphas, best = best_pair(dim)
        if best is None:
            return []
        _, i, j = best
        x = np.zeros(dim, dtype=complex)
        xs = np.zeros(dim, dtype=complex)
        if p == INF:
            x[i] = x[j] = 1.0
            xs[i] = xs[j] = 0.5
        else:
            x[i] = x[j] = 0.5 ** (1.0 / p)
            xs[i] = xs[j] = 0.5 ** (1.0 / q)
        return [(x, xs)]

    def slack_at(dim: int) -> float:
        _, best = best_pair(dim)
        return 1.0 if best is None else 1.0 - best[0]

    return WitnessRecipe(kind="phase-pair",
                         description="equal-mass state on the two closest "
                                     "distinct-phase unimodular coordinates",
                         generate=generate, slack_at=slack_at,
                         distance_floor=0.5,
                         min_dim=len(spec.prefix) + 3)


def _aligned_indicator(spec: SequenceSpec):
    """generate(dim) for the sup-norm indicator of all but the last
    materialized coordinate, aligned with the phases of spec."""

    def generate(dim: int):
        alphas = spec.materialize(dim)
        m = dim - 1
        x = np.zeros(dim, dtype=alphas.dtype)
        nz = np.abs(alphas[:m]) > 0
        x[:m][nz] = np.conj(alphas[:m][nz] / np.abs(alphas[:m][nz]))
        x[:m][~nz] = 1.0
        return [x]

    return generate


def _mixed_support_witnesses(spec: SequenceSpec, p: float) -> WitnessRecipe:
    """Growing sup-norm indicators for the c0 -> lp predicate."""

    def slack_at(dim: int) -> float:
        alphas = spec.materialize(dim)
        total = lp_norm(alphas, p)
        head = lp_norm(alphas[:dim - 1], p)
        return (total - head) / max(total, 1e-300)

    return WitnessRecipe(kind="mixed-growing-indicator",
                         description="aligned indicator of all but the last "
                                     "materialized coordinate",
                         generate=_aligned_indicator(spec), slack_at=slack_at,
                         distance_floor=1.0,
                         min_dim=len(spec.prefix) + 2)


# ---------------------------------------------------------------------------
# diagonal membership predicates
# ---------------------------------------------------------------------------

def diag_norm_member(spec: SequenceSpec, family) -> Verdict:
    """Does the norm-one diagonal operator admit a pointwise stability
    modulus for its norm on the given family?"""
    kind, p = family_key(family)
    spec.check_sup_norm_one("diagonal operator")
    cert = _certificate(spec)
    theorem = "diagonal-norm-dichotomy"
    if not spec.sup_attained():
        return Verdict(False, theorem, cert,
                       witness=_norm_witnesses(spec, "sup-unattained"),
                       reason="norm one but never attained; stability is "
                              "vacuous without attainment")
    if spec.J_is_everything():
        return Verdict(True, theorem, cert,
                       reason="every unit vector is norming")
    if spec.off_J_sup() < 1.0:
        return Verdict(True, theorem, cert,
                       reason="off-J moduli stay below one uniformly")
    return Verdict(False, theorem, cert,
                   witness=_norm_witnesses(spec, "off-J-approach"),
                   reason="moduli outside J accumulate at one")


def diag_nu_member(spec: SequenceSpec, family) -> Verdict:
    """Numerical-radius analogue: additionally requires finitely many
    distinct phases on J."""
    kind, p = family_key(family)
    if kind == "linf":
        raise GeometryError("the nu predicate covers c0 and lp with p < inf")
    spec.check_sup_norm_one("diagonal operator")
    cert = _certificate(spec)
    theorem = "diagonal-nu-dichotomy"
    if not spec.sup_attained():
        return Verdict(False, theorem, cert,
                       witness=_norm_witnesses(spec, "sup-unattained"),
                       reason="radius one but never attained")
    finite, _phases = spec.phases_on_J()
    if not finite:
        return Verdict(False, theorem, cert,
                       witness=_phase_pair_witnesses(spec, p),
                       reason="infinitely many distinct phases on J")
    if spec.J_is_everything():
        return Verdict(True, theorem, cert,
                       reason="J is everything with finitely many phases")
    if spec.off_J_sup() < 1.0:
        return Verdict(True, theorem, cert,
                       reason="finite phase set and off-J moduli below one")
    return Verdict(False, theorem, cert,
                   witness=_norm_witnesses(spec, "off-J-approach"),
                   reason="moduli outside J accumulate at one")


def diag_mixed_member(spec: SequenceSpec, from_family, to_family) -> Verdict:
    """Diagonal operators across lp <-> c0."""
    fk, fp = family_key(from_family)
    tk, tp = family_key(to_family)
    if fk == "lp" and tk in ("c0", "linf"):
        v = diag_norm_member(spec, from_family)
        return Verdict(v.member, "mixed-lp-to-sup", v.certificate,
                       v.witness, v.reason)
    if fk in ("c0", "linf") and tk == "lp":
        p = tp
        pref = float(sum(abs(a) ** p for a in spec.prefix))
        total = pref + spec.tail_abs_pnorm_pow(p)
        if not math.isfinite(total) or abs(total - 1.0) > 1e-12:
            raise NotNormalizedError(
                f"the coefficient sequence needs lp norm 1, got "
                f"{'inf' if not math.isfinite(total) else total ** (1.0 / p)}")
        cert = {"finitely_supported": spec.finitely_supported(),
                "p": p}
        theorem = "mixed-sup-to-lp"
        if spec.finitely_supported():
            return Verdict(True, theorem, cert,
                           reason="finitely supported coefficients")
        return Verdict(False, theorem, cert,
                       witness=_mixed_support_witnesses(spec, p),
                       reason="infinitely supported coefficients")
    raise GeometryError("mixed predicate covers lp -> c0/linf and c0 -> lp")


def projection_member(N: int, family, mode: str = "norm") -> Verdict:
    """Canonical projections P_N (N ones, then a zero tail)."""
    if N < 1:
        raise GeometryError("N must be >= 1")
    kind, _p = family_key(family)
    spec = projection_spec(N)
    if mode == "norm":
        v = diag_norm_member(spec, family)
        return Verdict(v.member, "projection-membership", v.certificate,
                       v.witness, f"P_{N}: {v.reason}")
    if mode != "nu":
        raise GeometryError("mode must be 'norm' or 'nu'")
    if kind == "linf":
        return Verdict(None, "projection-membership",
                       {"N": N}, None,
                       "the nu characterization does not cover the sup-norm "
                       "family; not applicable")
    v = diag_nu_member(spec, family)
    return Verdict(v.member, "projection-membership", v.certificate,
                   v.witness, f"P_{N}: {v.reason}")


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def _as_spec(f) -> SequenceSpec:
    if isinstance(f, SequenceSpec):
        return f
    return SequenceSpec(prefix=tuple(np.asarray(f).tolist()))


def functional_member(f, family) -> Verdict:
    """Membership for norm-one functionals, where decided.

    * 1 < p < inf: always a member (uniform convexity).
    * c0: member iff the functional attains, i.e. is finitely supported.
    * l1 / sup-norm families: decided for the two structured families with
      known refutations; anything else is an honest 'undecided'.
    """
    kind, p = family_key(family)
    spec = _as_spec(f)

    if kind == "lp" and 1.0 < p < INF:
        _check_dual_norm_one(spec, conjugate_exponent(p))
        return Verdict(True, "uniformly-convex-functionals",
                       {"p": p}, None,
                       "every norm-one functional on a uniformly convex "
                       "space is a member")
    if kind == "c0":
        _check_dual_norm_one(spec, 1.0)
        if spec.finitely_supported():
            return Verdict(True, "c0-functional-truncation",
                           {"support": len(spec.prefix)}, None,
                           "attains; finite support reduces to a finite "
                           "dimensional sup-norm space")
        return Verdict(False, "c0-functional-truncation", {}, None,
                       "summable coefficients with infinite support never "
                       "attain on c0")
    if kind == "lp" and p == 1.0:
        spec_sup = spec.sup_modulus()
        if spec_sup != 1.0:
            raise NotNormalizedError("functional on l1 needs sup modulus 1")
        if spec.J_nonempty() and spec.tail_sup() == 1.0 and \
                not spec.tail_sup_attained() and spec.materializable():
            return Verdict(False, "l1-functional-family",
                           _certificate(spec),
                           _l1_functional_witnesses(spec),
                           "attains only on the basis orbit while off-J "
                           "moduli accumulate at one")
        return Verdict(None, "l1-functional-family", _certificate(spec), None,
                       "no characterization available for this functional")
    if kind == "linf":
        try:
            total = float(sum(abs(a) for a in spec.prefix)) + \
                spec.tail_abs_pnorm_pow(1.0)
        except Exception:
            return Verdict(None, "sup-functional-family", {}, None,
                           "summability not determinable")
        if abs(total - 1.0) > 1e-12:
            raise NotNormalizedError("functional on the sup-norm family "
                                     "needs l1 norm 1")
        if spec.finitely_supported():
            return Verdict(None, "sup-functional-family", {}, None,
                           "finitely supported; outside the decided family")
        if spec.materializable():
            return Verdict(False, "sup-functional-family", {"l1_norm": 1.0},
                           _linf_functional_witnesses(spec),
                           "norming points need every coordinate unimodular; "
                           "finite indicators approach the value but stay "
                           "at distance one")
        return Verdict(None, "sup-functional-family", {}, None,
                       "tail not materializable; undecided")
    raise GeometryError(f"unsupported family for functionals: {family!r}")


def _check_dual_norm_one(spec: SequenceSpec, q: float):
    if not spec.materializable():
        return
    probe_dim = max(len(spec.prefix) + 32, 64)
    v = spec.materialize(probe_dim)
    n = lp_norm(v, q)
    if q == INF:
        if spec.tail_sup() > n:
            n = spec.tail_sup()
    elif spec.tail.kind != "zero":
        # tail remainder, when a rule is available
        try:
            full = float(sum(abs(a) ** q for a in spec.prefix)) + \
                spec.tail_abs_pnorm_pow(q)
            n = full ** (1.0 / q)
        except Exception:
            pass
    if abs(n - 1.0) > 1e-6:
        raise NotNormalizedError(f"functional norm is {n}, not 1")


def _l1_functional_witnesses(spec: SequenceSpec) -> WitnessRecipe:
    def generate(dim: int):
        alphas = spec.materialize(dim)
        e = np.zeros(dim, dtype=alphas.dtype)
        e[dim - 1] = 1.0
        return [e]

    def slack_at(dim: int) -> float:
        alphas = spec.materialize(dim)
        return 1.0 - float(abs(alphas[dim - 1])) / float(np.abs(alphas).max())

    return WitnessRecipe(kind="tail-basis-vector",
                         description="basis vector far down the tail",
                         generate=generate, slack_at=slack_at,
                         distance_floor=2.0,
                         min_dim=len(spec.prefix) + 2)


def _linf_functional_witnesses(spec: SequenceSpec) -> WitnessRecipe:
    def slack_at(dim: int) -> float:
        alphas = np.abs(spec.materialize(dim))
        return float(alphas[dim - 1:].sum()) / max(float(alphas.sum()), 1e-300)

    return WitnessRecipe(kind="growing-indicator",
                         description="aligned indicator of an initial block",
                         generate=_aligned_indicator(spec), slack_at=slack_at,
                         distance_floor=1.0,
                         min_dim=len(spec.prefix) + 2)


# ---------------------------------------------------------------------------
# eta functions and transfers
# ---------------------------------------------------------------------------

@dataclass
class EtaFunction:
    """A closed-form stability modulus candidate eps -> eta(eps), kept
    symbolic as a composition so transfers stay exact."""

    fn: Callable[[float], float]
    formula: str

    def __call__(self, eps: float) -> float:
        return float(self.fn(eps))

    def describe(self) -> dict:
        return {"formula": self.formula}


def eta_identity() -> EtaFunction:
    return EtaFunction(lambda e: e, "eps")


def eta_const(c: float) -> EtaFunction:
    return EtaFunction(lambda e: c, f"{c}")


def eta_linear(c: float) -> EtaFunction:
    return EtaFunction(lambda e: c * e, f"{c}*eps")


def eta_quadratic(c: float) -> EtaFunction:
    return EtaFunction(lambda e: c * e * e, f"{c}*eps^2")


def eta_min(*fs: EtaFunction) -> EtaFunction:
    return EtaFunction(lambda e: min(f(e) for f in fs),
                       "min(" + ", ".join(f.formula for f in fs) + ")")


def adjoint_eta(eta_T: EtaFunction, target_dual_space: Space) -> EtaFunction:
    """Transfer a norm modulus to the adjoint when the target dual is
    uniformly convex: eta*(eps) = min(eta_T(delta(eps)/2), delta(eps)/2)."""
    p = target_dual_space.p
    if not (1.0 < p < INF):
        raise GeometryError("adjoint transfer needs a uniformly convex "
                            "target dual (1 < p < inf)")

    def fn(eps: float) -> float:
        d = modulus_convexity(target_dual_space, eps) / 2.0
        return min(eta_T(d), d)

    return EtaFunction(fn, f"min(eta_T(delta_{p}(eps)/2), delta_{p}(eps)/2)")


def c0_adjoint_nu_eta(eta_T: EtaFunction) -> EtaFunction:
    """Radius transfer onto the l1 adjoint of a finite-band operator on the
    c0 truncation: eta*(eps) = min(eps/3, eta_T(eps/3))."""
    return EtaFunction(lambda e: min(e / 3.0, eta_T(e / 3.0)),
                       "min(eps/3, eta_T(eps/3))")


@dataclass
class Rank1L1Eta:
    eta: EtaFunction
    repair: Callable[[np.ndarray], np.ndarray]


def rank1_l1_eta() -> Rank1L1Eta:
    """The explicit modulus eta(eps) = eps/2 of the norm-one rank-one
    operator on l1 concentrated on the first coordinate, with its repair
    map x -> (x(1)/|x(1)|) e_1."""

    def repair(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        y = np.zeros_like(x)
        if x[0] == 0:
            y[0] = 1.0
        else:
            y[0] = x[0] / abs(x[0])
        return y

    return Rank1L1Eta(eta=eta_linear(0.5), repair=repair)


# ---------------------------------------------------------------------------
# certified floors for the probe (member=true side of the master property)
# ---------------------------------------------------------------------------

def diag_norm_eta_floor(spec: SequenceSpec, family, eps: float):
    """A dimension-free positive lower bound on the true stability modulus of
    every truncation of a member=true diagonal; None when no unit vector can
    be eps-far from the norming set (probes report a sentinel there)."""
    kind, p = family_key(family)
    beta = spec.off_J_sup()
    if spec.J_is_everything():
        return None
    if kind in ("c0", "linf") or p == INF:
        return min(eps, 1.0 - beta)
    if eps >= 2.0 ** (1.0 / p):
        return None
    A = _norm_profile_mass(p, eps)
    value = (A ** p + beta ** p * max(0.0, 1.0 - A ** p)) ** (1.0 / p)
    return max(0.0, 1.0 - value)


def _largest_feasible(ok) -> float:
    """The largest t in [0, 1] with ok(t), for ok true at 0 and monotone, by
    200 halvings of [0, 1] (converged to the last bit)."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _norm_profile_mass(p: float, eps: float) -> float:
    """The largest mass A on the norming coordinate of a two-coordinate
    profile (A, (1 - A^p)^(1/p)) in lp, 1 <= p < inf, that stays eps-far
    from the unit vectors supported there:
    ((1 - A)^p + 1 - A^p)^(1/p) >= eps."""
    return _largest_feasible(
        lambda A: ((1.0 - A) ** p + max(0.0, 1.0 - A ** p)) ** (1.0 / p)
        >= eps)


def _group_cap(p: float, eps: float) -> float:
    """Largest single-phase state mass compatible with staying eps-far from
    that phase group, in profile terms."""
    if p in (1.0, INF):
        return max(0.0, 1.0 - eps / 2.0)
    q = conjugate_exponent(p)

    def d(m: float) -> float:
        dx = ((1.0 - m ** (1.0 / p)) ** p + max(0.0, 1.0 - m)) ** (1.0 / p)
        ds = ((1.0 - m ** (1.0 / q)) ** q + max(0.0, 1.0 - m)) ** (1.0 / q)
        return max(dx, ds)

    return _largest_feasible(lambda m: d(m) >= eps)


def diag_nu_eta_floor(spec: SequenceSpec, family, eps: float):
    """Positive floor for member=true diagonals in radius mode, via an exact
    maximization of the capped phase-mass profile (the profile relaxation
    only enlarges the feasible set, so the floor stays below the truth)."""
    kind, p = family_key(family)
    finite, phases = spec.phases_on_J()
    if not finite:
        raise GeometryError("floor only defined for member=true certificates")
    beta = spec.off_J_sup()
    has_off = not spec.J_is_everything()
    cap = _group_cap(p, eps)
    if len(phases) == 1 and not has_off:
        return None                      # every state attains: sentinel land
    lams = [complex(v) for v in phases]
    best = 0.0
    n = len(lams)
    # vertices of {0 <= m_l <= cap, w >= 0, sum = 1}: fill a subset of groups
    # to the cap, then one remaining variable takes the leftover
    for filled in range(0, n + 1):
        for subset in itertools.combinations(range(n), filled):
            used = cap * filled
            if used > 1.0 + 1e-12:
                continue
            rem = max(0.0, 1.0 - used)
            base = sum(lams[i] for i in subset) * cap
            # leftover to the off-J part
            if has_off:
                best = max(best, abs(base) + beta * rem)
            # leftover to one more group (partially filled)
            for extra in range(n):
                if extra in subset:
                    continue
                m = min(cap, rem)
                val = abs(base + lams[extra] * m)
                if has_off:
                    val += beta * (rem - m)
                elif rem - m > 1e-12:
                    continue             # mass must go somewhere legal
                best = max(best, val)
            if not has_off and rem <= 1e-12:
                best = max(best, abs(base))
    if best >= 1.0:
        return None
    return max(0.0, 1.0 - best)
