"""Symbolic bounded scalar sequences (alpha_n): explicit prefix + tail rule.

A SequenceSpec carries exactly the data the diagonal characterizations need,
symbolically: which entries have modulus one (the set J), the supremum of the
remaining moduli, and the set of unimodular values (phases) that occur.  The
dichotomies are decided from this data alone; floating-point thresholds enter
only once, at construction time, where entries within SNAP_TOL of modulus one
are snapped onto the unit circle.

Every tail is one record, a BoundedTail: its modulus profile, its phases and
two optional rules.  ZeroTail() and ConstantTail(value) are constructors that
fill the record in, and the SequenceSpec predicates read its fields.  A tail
is zero exactly when its sup_modulus is 0, and only then is the sequence
finitely supported.

Materialization (turning a spec into a finite coordinate vector) is a
separate, optional capability: a tail is materializable only when it carries
an explicit entry rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError, NotMaterializableError, NotNormalizedError

#: entries this close to the unit circle are treated as exactly unimodular
SNAP_TOL = 1e-12


def _snap(value):
    a = abs(value)
    if a > 0 and abs(a - 1.0) <= SNAP_TOL:
        return value / a
    return value


def _finite(value):
    if not cmath.isfinite(complex(value)):
        raise GeometryError(f"prefix entry must be finite, got {value!r}")
    return value


def _phase_key(value):
    """Canonical hashable key for a unimodular scalar: its parts rounded to
    9 digits."""
    z = complex(value)
    return (round(z.real, 9), round(z.imag, 9))


@dataclass(frozen=True, eq=False)
class BoundedTail:
    """A bounded tail described by its modulus profile.

    sup_modulus      -- sup over tail entries of |alpha_n|; 0 for a zero tail
    sup_attained     -- whether some tail entry reaches sup_modulus
    unimodular_values-- the unit scalars occurring in the tail (read as the
                        phases only when sup_modulus == 1 and attained; a
                        constant tail lists its value here whatever its
                        modulus); None together with unimodular_finite=False
                        encodes an infinite set
    unimodular_finite-- False when infinitely many distinct phases occur
    sub_unit_sup     -- sup over tail entries with |alpha_n| < 1 (0.0 if none)
    entries          -- optional explicit rule k -> alpha, where k = 1, 2, ...
                        indexes positions within the tail; required for
                        materialization
    abs_pnorm_pow    -- optional rule p -> sum over tail of |alpha|^p
                        (math.inf allowed); needed by the c0 -> lp predicate
    """

    sup_modulus: float
    sup_attained: bool
    unimodular_values: Optional[tuple] = None
    unimodular_finite: bool = True
    sub_unit_sup: float = 0.0
    entries: Optional[Callable[[int], complex]] = None
    abs_pnorm_pow: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        for name in ("sup_modulus", "sub_unit_sup"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x >= 0):
                raise GeometryError(
                    f"tail {name} must be finite and >= 0, got {x!r}")
        if self.sup_modulus == 1.0 and self.sup_attained:
            if self.unimodular_finite and not self.unimodular_values:
                raise ValueError(
                    "a tail attaining modulus one must list its unimodular "
                    "values or declare them infinite")
        if self.unimodular_values is not None:
            object.__setattr__(
                self, "unimodular_values",
                tuple(_snap(v) for v in self.unimodular_values))


def ConstantTail(value) -> BoundedTail:
    """alpha_n = value beyond the prefix.

    The raw value goes into the record, so that it is snapped once: as the
    listed value by BoundedTail and as an entry by materialize."""
    mod = abs(_snap(value))
    return BoundedTail(sup_modulus=mod, sup_attained=True,
                       unimodular_values=(value,),
                       sub_unit_sup=mod if mod < 1.0 else 0.0,
                       entries=lambda k: value,
                       abs_pnorm_pow=lambda p: 0.0 if mod == 0 else math.inf)


def ZeroTail() -> BoundedTail:
    """alpha_n = 0 beyond the prefix."""
    return ConstantTail(0.0)


@dataclass(frozen=True, eq=False)
class SequenceSpec:
    """Explicit prefix (alpha_1..alpha_N) plus a symbolic tail."""

    prefix: tuple
    tail: BoundedTail = field(default_factory=ZeroTail)

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(
            _snap(_finite(v)) for v in self.prefix))

    # -- symbolic structure -------------------------------------------------

    def prefix_unimodular_mask(self):
        return [abs(abs(v) - 1.0) == 0.0 for v in self.prefix]

    def prefix_J(self):
        """1-based indices n in the prefix with |alpha_n| = 1."""
        return [i + 1 for i, u in enumerate(self.prefix_unimodular_mask()) if u]

    def tail_has_unimodular(self) -> bool:
        return self.tail.sup_modulus == 1.0 and self.tail.sup_attained

    def sup_modulus(self) -> float:
        mods = [1.0 if u else abs(v)
                for v, u in zip(self.prefix, self.prefix_unimodular_mask())]
        mods.append(self.tail.sup_modulus)
        return max(mods)

    def sup_attained(self) -> bool:
        s = self.sup_modulus()
        for v, u in zip(self.prefix, self.prefix_unimodular_mask()):
            if (1.0 if u else abs(v)) == s:
                return True
        return self.tail.sup_modulus == s and self.tail.sup_attained

    def J_nonempty(self) -> bool:
        return bool(self.prefix_J()) or self.tail_has_unimodular()

    def J_is_everything(self) -> bool:
        return all(self.prefix_unimodular_mask()) and \
            self.tail_has_unimodular() and self.tail.sub_unit_sup == 0.0

    def off_J_sup(self) -> float:
        """sup over n outside J of |alpha_n| (exact, symbolic)."""
        mods = [abs(v) for v, u in
                zip(self.prefix, self.prefix_unimodular_mask()) if not u]
        t = self.tail
        # a reached sup of one leaves only the sub-unit entries off J; one
        # that is approached and never reached stays the sup off J
        mods.append(t.sub_unit_sup if t.sup_modulus >= 1.0 and t.sup_attained
                    else t.sup_modulus)
        return max(mods)

    def phases_on_J(self):
        """The distinct unimodular values on J: (finite?, tuple-or-None)."""
        keys = {}
        for v, u in zip(self.prefix, self.prefix_unimodular_mask()):
            if u:
                keys[_phase_key(v)] = v
        if self.tail_has_unimodular():
            if not self.tail.unimodular_finite:
                return False, None
            for v in self.tail.unimodular_values:
                keys[_phase_key(v)] = v
        return True, tuple(keys.values())

    def finitely_supported(self) -> bool:
        return self.tail.sup_modulus == 0.0

    # -- materialization ----------------------------------------------------

    def materializable(self) -> bool:
        return self.tail.entries is not None

    def materialize(self, dim: int) -> np.ndarray:
        """Realize the first ``dim`` entries as a concrete vector: complex
        when an entry or a listed tail value is not real, or the tail has
        infinitely many phases, and real otherwise."""
        n, t = len(self.prefix), self.tail
        if dim < n:
            raise NotMaterializableError(
                f"dim {dim} shorter than the explicit prefix ({n})")
        if dim > n and t.entries is None:
            raise NotMaterializableError(
                "bounded tail carries no explicit entry rule")
        out = np.array(self.prefix + tuple(
            _snap(t.entries(k)) for k in range(1, dim - n + 1)),
            dtype=np.complex128)
        if out.imag.any() or not t.unimodular_finite or \
                any(complex(v).imag != 0 for v in t.unimodular_values or ()):
            return out
        return out.real.copy()

    def tail_abs_pnorm_pow(self, p: float) -> float:
        """sum over tail entries of |alpha_n|^p, possibly inf."""
        if self.tail.abs_pnorm_pow is None:
            raise NotMaterializableError("bounded tail carries no p-norm rule")
        return self.tail.abs_pnorm_pow(p)

    def check_sup_norm_one(self, what: str = "operator") -> None:
        if self.sup_modulus() != 1.0:
            raise NotNormalizedError(
                f"{what} must have sup modulus exactly 1, got {self.sup_modulus()}")


# ---------------------------------------------------------------------------
# common tail constructors
# ---------------------------------------------------------------------------

def geometric_tail(c: float, r: float) -> BoundedTail:
    """alpha = c * r^k for tail positions k = 1, 2, ..., with 0 < r < 1."""
    if not (0 < r < 1):
        raise ValueError("geometric ratio must lie in (0, 1)")
    sup = abs(c) * r
    if sup >= 1.0:
        raise ValueError("geometric tail must stay strictly below modulus 1")

    def entries(k: int) -> float:
        return c * r ** k

    def pnorm(p: float) -> float:
        if p == math.inf:
            return sup
        return abs(c) ** p * r ** p / (1.0 - r ** p)

    return BoundedTail(sup_modulus=sup, sup_attained=True,
                       unimodular_values=None, unimodular_finite=True,
                       sub_unit_sup=sup, entries=entries, abs_pnorm_pow=pnorm)


def ratio_to_one_tail() -> BoundedTail:
    """alpha = k/(k+1) at tail position k: sup modulus 1, never attained."""
    return BoundedTail(sup_modulus=1.0, sup_attained=False,
                       unimodular_values=None, unimodular_finite=True,
                       sub_unit_sup=1.0, entries=lambda k: k / (k + 1.0))


def drifting_phase_tail() -> BoundedTail:
    """alpha = exp(i/k) at tail position k: unimodular, infinitely many phases."""
    return BoundedTail(sup_modulus=1.0, sup_attained=True,
                       unimodular_values=None, unimodular_finite=False,
                       sub_unit_sup=0.0,
                       entries=lambda k: complex(np.exp(1j / k)))


def projection_spec(N: int) -> SequenceSpec:
    """The canonical projection P_N as a diagonal sequence: N ones, zero tail."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return SequenceSpec(prefix=(1.0,) * N, tail=ZeroTail())
