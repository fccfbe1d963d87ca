"""Direct-sum transfer machinery: lifting an operator T: W -> Z to the
two-block sum by (w, z) -> (0, T w), constructive modulus transfers in both
directions for outer 1 and outer inf, and the two failure demonstrations
(the corner operator whose squeeze-back is zero, and the p-sum lift of the
identity whose radius tops out strictly below one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import GeometryError
from .gallery import make_corner
from .membership import EtaFunction
from .numerical_radius import (BlockPairStates, corner_profile_constant,
                               numerical_radius, _multistart_nu)
from .norm_attainment import sphere_rows
from .operators import Lift, OperatorExpr, identity, to_matrix
from .spaces import (INF, Space, StatePair, SumSpace, conjugate_exponent,
                     modulus_convexity)


@dataclass
class SumTransferResult:
    direction: str
    outer_p: float
    eta_out: EtaFunction
    hypotheses_checked: list = field(default_factory=list)

    def describe(self) -> dict:
        return {"direction": self.direction, "outer_p": self.outer_p,
                "eta": self.eta_out.describe(),
                "hypotheses": self.hypotheses_checked}


def lift_nu_implies_norm(T: OperatorExpr, outer_p: float,
                         eta_lift: EtaFunction) -> SumTransferResult:
    """From a radius modulus of the lifted operator to a norm modulus of T.

    outer 1 passes the modulus through unchanged; outer inf halves it (the
    argument spends half the slack reaching an exactly-norming functional).
    """
    if outer_p == 1:
        eta = EtaFunction(eta_lift.fn, eta_lift.formula)
    elif outer_p == INF:
        eta = EtaFunction(lambda e: eta_lift(e) / 2.0,
                          f"({eta_lift.formula})/2")
    else:
        raise GeometryError("outer_p must be 1 or inf")
    return SumTransferResult("lift_nu_to_norm", outer_p, eta,
                             ["lifted operator attains radius one "
                              "(caller-asserted; finite dim makes it checkable)"])


def _require_smooth(space: Space, name: str):
    if not (1.0 < space.p < INF):
        raise GeometryError(
            f"{name} must be uniformly smooth and convex (1 < p < inf), "
            f"got p = {space.p}")


def norm_implies_lift_nu(T: OperatorExpr, outer_p: float,
                         eta_T: EtaFunction, W: Space, Z: Space) -> SumTransferResult:
    """From a norm modulus of T: W -> Z to a radius modulus of the lift.

    outer 1 needs both components uniformly smooth; outer inf needs Z
    uniformly convex and W uniformly smooth.  The output composes the
    component moduli of convexity exactly as the constructive argument does.
    """
    checked = []
    if outer_p == 1:
        _require_smooth(W, "W")
        _require_smooth(Z, "Z")
        checked += [f"W (p={W.p}) uniformly smooth",
                    f"Z (p={Z.p}) uniformly smooth"]
        Wd, Zd = W.dual(), Z.dual()

        def fn(eps: float) -> float:
            dw = modulus_convexity(Wd, eps) / 2.0
            dz = modulus_convexity(Zd, eps) / 2.0
            inner = min(dw, dz, eps / 2.0)
            return min(eta_T(inner), dw, dz, eps / 2.0)

        eta = EtaFunction(
            fn, "min(eta_T(min(dW*(eps)/2, dZ*(eps)/2, eps/2)), "
                "dW*(eps)/2, dZ*(eps)/2, eps/2)")
    elif outer_p == INF:
        _require_smooth(W, "W")
        _require_smooth(Z, "Z")
        checked += [f"Z (p={Z.p}) uniformly convex",
                    f"W (p={W.p}) uniformly smooth"]
        Zd = Z.dual()

        def fn(eps: float) -> float:
            dz = modulus_convexity(Z, eps) / 2.0
            eps0 = min(0.5 * modulus_convexity(Zd, min(dz, eps / 2.0)),
                       dz, eps / 2.0)
            return min(eps0, eta_T(eps0))

        eta = EtaFunction(
            fn, "min(eps0, eta_T(eps0)) with eps0 = "
                "min(dZ*(min(dZ(eps)/2, eps/2))/2, dZ(eps)/2, eps/2)")
    else:
        raise GeometryError("outer_p must be 1 or inf")
    return SumTransferResult("norm_to_lift_nu", outer_p, eta, checked)


# ---------------------------------------------------------------------------
# attaining states of lifted Hilbert-component operators (for validation)
# ---------------------------------------------------------------------------

class LiftNuStates(BlockPairStates):
    """Attaining pairs of Lift(T) for a norm-one T between Hilbert
    components, in terms of the top right-singular sphere span(conj(V1))
    and its image U1 = T(conj(V1)):

    outer 1:   x = (w, 0),      x* = (conj(w), s conj(T w))
    outer inf: x = (w, s T w),  x* = (0, conj(s T w))
    with w a unit vector of span(conj(V1)) and s unimodular.
    """

    def __init__(self, T: OperatorExpr, outer_p: float):
        U, S, Vh = np.linalg.svd(to_matrix(T))
        keep = S >= S[0] * (1 - 1e-9)
        self.V1 = Vh[:len(S)][keep].T
        self.U1 = U[:, :len(S)][:, keep]
        self.outer_p = outer_p
        dV, dU = sphere_rows(np.conj(self.V1)), sphere_rows(self.U1)
        dVs, dUs = sphere_rows(self.V1), sphere_rows(np.conj(self.U1))
        if outer_p == 1:
            option = ([dV, T.codomain.norm_rows], [dVs, dUs])
        else:
            option = ([dV, dU], [T.domain.dual().norm_rows, dUs])
        super().__init__(SumSpace((T.domain, T.codomain), outer_p), [option])

    def sample(self, rng, count: int = 1):
        out = []
        for _ in range(count):
            c = rng.normal(size=self.V1.shape[1])
            w = np.conj(self.V1) @ c
            w /= np.linalg.norm(w)
            # T acts isometrically from span(conj(V1)) onto span(U1)
            Tw = self.U1 @ (self.V1.T @ w)
            if self.outer_p == 1:
                x = self.space.join([w, np.zeros(len(Tw))])
                xs = self.space.join([np.conj(w), np.conj(Tw)])
            else:
                x = self.space.join([w, Tw])
                xs = self.space.join([np.zeros(len(w)), np.conj(Tw)])
            out.append(StatePair(x, xs, self.space))
        return out

    def describe(self):
        return {"kind": "lift-pairs", "outer_p": self.outer_p,
                "v1_dim": self.V1.shape[1]}


# ---------------------------------------------------------------------------
# failure demonstrations
# ---------------------------------------------------------------------------

@dataclass
class PsumReport:
    p_outer: float
    dim: int
    nu: float
    margin: float
    profile_value: float
    search_value: float
    attains_one: bool
    trace: list

    def describe(self) -> dict:
        return {"p_outer": self.p_outer, "dim": self.dim, "nu": self.nu,
                "margin": self.margin, "profile_value": self.profile_value,
                "search_value": self.search_value,
                "attains_one": self.attains_one, "trace": self.trace}


def psum_counterexample(p_outer: float, dim: int, seed: int = 0) -> PsumReport:
    """The lifted identity on a p-sum of Hilbert blocks: its radius equals
    (1/p)^(1/p) (1/q)^(1/q) < 1, so pairing one is excluded and the lift
    cannot attain radius one, for every 1 < p < inf."""
    if not (1.0 < p_outer < INF):
        raise GeometryError("p_outer must lie strictly between 1 and inf")
    H = Space(2.0, dim)
    lifted = Lift(identity(H), p_outer)
    structural = numerical_radius(lifted)
    search = _multistart_nu(to_matrix(lifted), lifted.sum_space, 48, 200, seed)
    nu = structural.value
    q = conjugate_exponent(p_outer)
    trace = [
        "a unit pairing would force ||x2*|| = ||x1|| = 1",
        f"the dual profile constraint ||x1*||^{q:g} + ||x2*||^{q:g} = 1 "
        "then forces x1* = 0",
        f"the primal profile constraint ||x1||^{p_outer:g} + "
        f"||x2||^{p_outer:g} = 1 forces x2 = 0",
        "so <x1*, x1> + <x2*, x2> = 0, contradicting the state pairing of 1",
        f"profile maximum over a^p + b^p = 1 of a b^(p-1) is {nu:.12f}",
    ]
    return PsumReport(p_outer=p_outer, dim=dim, nu=nu, margin=1.0 - nu,
                      profile_value=corner_profile_constant(p_outer),
                      search_value=search.value,
                      attains_one=False, trace=trace)


@dataclass
class CornerReport:
    outer_p: float
    dim: int
    nu: float
    nu_attained: bool
    delift_is_zero: bool
    repair_checked: bool
    claims: list

    def describe(self) -> dict:
        return {"outer_p": self.outer_p, "dim": self.dim, "nu": self.nu,
                "nu_attained": self.nu_attained,
                "delift_is_zero": self.delift_is_zero,
                "repair_checked": self.repair_checked,
                "claims": [{"name": c.name, "passed": c.passed,
                            "detail": c.detail} for c in self.claims]}


def corner_counterexample(outer_p: float, dim: int, seed: int = 0) -> CornerReport:
    """The corner operator attains radius one on the two-block Hilbert sum
    with quantified repair bounds, yet its squeeze-back is the zero
    operator."""
    entry = make_corner(dim, outer_p)
    claims = entry.run_claims(seed)
    by_name = {c.name: c for c in claims}
    return CornerReport(
        outer_p=outer_p, dim=dim, nu=1.0,
        nu_attained=by_name["nu-one-attained"].passed,
        delift_is_zero=by_name["delift-zero"].passed,
        repair_checked=by_name["repair-bounds"].passed,
        claims=claims)
