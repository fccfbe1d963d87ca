"""Symbolic bounded scalar sequences (alpha_n): explicit prefix + tail rule.

A SequenceSpec carries exactly the data the diagonal characterizations need,
symbolically: which entries have modulus one (the set J), the supremum of the
remaining moduli, and the set of unimodular values (phases) that occur.  The
dichotomies are decided from this data alone; floating-point thresholds enter
only once, at construction time, where entries within SNAP_TOL of modulus one
are snapped onto the unit circle.

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


def _finite(value, what: str):
    if not cmath.isfinite(complex(value)):
        raise GeometryError(f"{what} must be finite, got {value!r}")
    return value


def _phase_key(value, digits: int = 9):
    """Canonical hashable key for a unimodular scalar."""
    z = complex(value)
    return (round(z.real, digits), round(z.imag, digits))


@dataclass(frozen=True)
class ZeroTail:
    """alpha_n = 0 beyond the prefix."""

    kind: str = field(default="zero", init=False)


@dataclass(frozen=True)
class ConstantTail:
    """alpha_n = value beyond the prefix."""

    value: complex
    kind: str = field(default="constant", init=False)

    def __post_init__(self):
        object.__setattr__(self, "value",
                           _snap(_finite(self.value, "constant tail value")))


@dataclass(frozen=True, eq=False)
class BoundedTail:
    """A generic bounded tail described by its modulus profile.

    sup_modulus      -- sup over tail entries of |alpha_n|
    sup_attained     -- whether some tail entry reaches sup_modulus
    unimodular_values-- the unit scalars occurring in the tail (only relevant
                        when sup_modulus == 1 and attained); None together
                        with unimodular_finite=False encodes an infinite set
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
    kind: str = field(default="bounded", init=False)

    def __post_init__(self):
        if self.sup_modulus < 0:
            raise ValueError("sup_modulus must be >= 0")
        if self.sup_modulus == 1.0 and self.sup_attained:
            if self.unimodular_finite and not self.unimodular_values:
                raise ValueError(
                    "a tail attaining modulus one must list its unimodular "
                    "values or declare them infinite")
        if self.unimodular_values is not None:
            object.__setattr__(
                self, "unimodular_values",
                tuple(_snap(v) for v in self.unimodular_values))


Tail = object  # ZeroTail | ConstantTail | BoundedTail


@dataclass(frozen=True, eq=False)
class SequenceSpec:
    """Explicit prefix (alpha_1..alpha_N) plus a symbolic tail."""

    prefix: tuple
    tail: object = field(default_factory=ZeroTail)

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(
            _snap(_finite(v, "prefix entry")) for v in self.prefix))

    # -- symbolic structure -------------------------------------------------

    def prefix_unimodular_mask(self):
        return [abs(abs(v) - 1.0) == 0.0 for v in self.prefix]

    def prefix_J(self):
        """1-based indices n in the prefix with |alpha_n| = 1."""
        return [i + 1 for i, u in enumerate(self.prefix_unimodular_mask()) if u]

    def tail_sup(self) -> float:
        t = self.tail
        if t.kind == "zero":
            return 0.0
        if t.kind == "constant":
            return abs(t.value)
        return t.sup_modulus

    def tail_sup_attained(self) -> bool:
        t = self.tail
        if t.kind == "zero":
            return True
        if t.kind == "constant":
            return True
        return t.sup_attained

    def tail_has_unimodular(self) -> bool:
        t = self.tail
        if t.kind == "constant":
            return abs(t.value) == 1.0
        if t.kind == "bounded":
            return t.sup_modulus == 1.0 and t.sup_attained
        return False

    def tail_all_unimodular(self) -> bool:
        t = self.tail
        if t.kind == "constant":
            return abs(t.value) == 1.0
        if t.kind == "bounded":
            return t.sup_modulus == 1.0 and t.sup_attained and t.sub_unit_sup == 0.0
        return False

    def sup_modulus(self) -> float:
        mods = [1.0 if u else abs(v)
                for v, u in zip(self.prefix, self.prefix_unimodular_mask())]
        mods.append(self.tail_sup())
        return max(mods)

    def sup_attained(self) -> bool:
        s = self.sup_modulus()
        for v, u in zip(self.prefix, self.prefix_unimodular_mask()):
            if (1.0 if u else abs(v)) == s:
                return True
        return self.tail_sup() == s and self.tail_sup_attained()

    def J_nonempty(self) -> bool:
        return bool(self.prefix_J()) or self.tail_has_unimodular()

    def J_is_everything(self) -> bool:
        return all(self.prefix_unimodular_mask()) and self.tail_all_unimodular()

    def off_J_sup(self) -> float:
        """sup over n outside J of |alpha_n| (exact, symbolic)."""
        mods = [abs(v) for v, u in
                zip(self.prefix, self.prefix_unimodular_mask()) if not u]
        t = self.tail
        if t.kind == "zero":
            mods.append(0.0)
        elif t.kind == "constant":
            if abs(t.value) < 1.0:
                mods.append(abs(t.value))
        else:
            if t.sup_modulus < 1.0:
                mods.append(t.sup_modulus)
            elif not t.sup_attained:
                mods.append(t.sup_modulus)   # approached, never reached: sup stays
            else:
                mods.append(t.sub_unit_sup)
        return max(mods) if mods else 0.0

    def phases_on_J(self):
        """The distinct unimodular values on J: (finite?, tuple-or-None)."""
        keys = {}
        for v, u in zip(self.prefix, self.prefix_unimodular_mask()):
            if u:
                keys[_phase_key(v)] = v
        t = self.tail
        if t.kind == "constant" and abs(t.value) == 1.0:
            keys[_phase_key(t.value)] = t.value
        elif t.kind == "bounded" and t.sup_modulus == 1.0 and t.sup_attained:
            if not t.unimodular_finite:
                return False, None
            for v in t.unimodular_values:
                keys[_phase_key(v)] = v
        return True, tuple(keys.values())

    def is_complex(self) -> bool:
        if any(isinstance(v, complex) and v.imag != 0 for v in self.prefix):
            return True
        t = self.tail
        if t.kind == "constant":
            v = complex(t.value)
            return v.imag != 0
        if t.kind == "bounded" and t.unimodular_values:
            return any(complex(v).imag != 0 for v in t.unimodular_values)
        if t.kind == "bounded" and not t.unimodular_finite:
            return True
        return False

    def finitely_supported(self) -> bool:
        return self.tail.kind == "zero"

    # -- materialization ----------------------------------------------------

    def materializable(self) -> bool:
        t = self.tail
        return t.kind in ("zero", "constant") or t.entries is not None

    def materialize(self, dim: int) -> np.ndarray:
        """Realize the first ``dim`` entries as a concrete vector."""
        if dim < len(self.prefix):
            raise NotMaterializableError(
                f"dim {dim} shorter than the explicit prefix ({len(self.prefix)})")
        complex_out = self.is_complex()
        dtype = np.complex128 if complex_out else np.float64
        out = np.zeros(dim, dtype=dtype)

        def put(i, v):
            out[i] = v if complex_out else complex(v).real

        for i, v in enumerate(self.prefix):
            put(i, v)
        t = self.tail
        for n in range(len(self.prefix) + 1, dim + 1):
            if t.kind == "zero":
                put(n - 1, 0.0)
            elif t.kind == "constant":
                put(n - 1, t.value)
            else:
                if t.entries is None:
                    raise NotMaterializableError(
                        "bounded tail carries no explicit entry rule")
                put(n - 1, _snap(t.entries(n - len(self.prefix))))
        return out

    def tail_abs_pnorm_pow(self, p: float) -> float:
        """sum over tail entries of |alpha_n|^p, possibly inf."""
        t = self.tail
        if t.kind == "zero":
            return 0.0
        if t.kind == "constant":
            return 0.0 if t.value == 0 else math.inf
        if t.abs_pnorm_pow is None:
            raise NotMaterializableError(
                "bounded tail carries no p-norm rule")
        return t.abs_pnorm_pow(p)

    def check_sup_norm_one(self, what: str = "operator") -> None:
        if self.sup_modulus() != 1.0:
            raise NotNormalizedError(
                f"{what} must have sup modulus exactly 1, got {self.sup_modulus()}")

    def describe(self) -> dict:
        t = self.tail
        tail: dict = {"kind": t.kind}
        if t.kind == "constant":
            tail["value"] = _scalar_json(t.value)
        elif t.kind == "bounded":
            tail.update({
                "sup_modulus": t.sup_modulus,
                "sup_attained": t.sup_attained,
                "unimodular_finite": t.unimodular_finite,
                "unimodular_values": (None if t.unimodular_values is None else
                                      [_scalar_json(v) for v in t.unimodular_values]),
                "sub_unit_sup": t.sub_unit_sup,
                "materializable": t.entries is not None,
            })
        return {"prefix": [_scalar_json(v) for v in self.prefix], "tail": tail}


def _scalar_json(v):
    z = complex(v)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


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
