"""Operator representations as a small expression tree.

Nodes: Dense matrices, Diagonal multipliers, rank-one operators, adjoints,
lifts/delifts across direct sums, direct sums of blocks, and scalar multiples.
Every node knows its domain and codomain (a Space or SumSpace), evaluates
exactly, and can be materialized to a dense matrix.

The adjoint is the plain transpose (no conjugation), matching the bilinear
pairing: <adjoint(T) y*, x> = <y*, T x>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GeometryError
from .sequences import SequenceSpec
from .spaces import Space, SumSpace, pair


class OperatorExpr:
    """Base class; subclasses are immutable value objects."""

    @property
    def domain(self):
        raise NotImplementedError

    @property
    def codomain(self):
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return apply(self, x)

    @property
    def is_square(self) -> bool:
        return self.domain == self.codomain


def _on_field(entries, what: str, *spaces):
    """entries on the scalar field of spaces.  Where one of the spaces is
    real, complex entries with zero imaginary parts become real (a scalar
    becomes a Python float), and an entry with a nonzero imaginary part
    raises GeometryError: casting it would drop the imaginary part."""
    if not np.iscomplexobj(entries) or all(s.is_complex for s in spaces):
        return entries
    if np.any(np.imag(entries) != 0):
        raise GeometryError(f"{what} has a complex entry, but the field of "
                            "its domain or codomain is real")
    return float(np.real(entries)) if np.ndim(entries) == 0 \
        else np.real(entries)


@dataclass(frozen=True, eq=False)
class Dense(OperatorExpr):
    matrix: np.ndarray
    dom: object
    cod: object

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (self.cod.dim, self.dom.dim):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match "
                f"({self.cod.dim}, {self.dom.dim})")
        m = _on_field(m, "matrix", self.dom, self.cod)
        dtype = np.complex128 if (self.dom.is_complex or np.iscomplexobj(m)) \
            else np.float64
        m = m.astype(dtype)
        if not np.isfinite(m).all():
            raise GeometryError("matrix has a non-finite entry")
        object.__setattr__(self, "matrix", m)

    @property
    def domain(self):
        return self.dom

    @property
    def codomain(self):
        return self.cod


@dataclass(frozen=True, eq=False)
class Diagonal(OperatorExpr):
    """x -> (alpha_n x(n)); spec must be materializable at the space dim."""

    spec: SequenceSpec
    dom: object
    cod: object = None

    def __post_init__(self):
        if self.cod is None:
            object.__setattr__(self, "cod", self.dom)
        if self.dom.dim != self.cod.dim:
            raise DimensionMismatchError("diagonal operators need equal dims")

    @property
    def domain(self):
        return self.dom

    @property
    def codomain(self):
        return self.cod

    def alphas(self) -> np.ndarray:
        return self.spec.materialize(self.dom.dim)


@dataclass(frozen=True, eq=False)
class RankOne(OperatorExpr):
    """x -> <xstar, x> y."""

    y: np.ndarray
    xstar: np.ndarray
    dom: object
    cod: object

    def __post_init__(self):
        y = _on_field(np.asarray(self.y), "y", self.cod)
        xstar = _on_field(np.asarray(self.xstar), "xstar", self.dom)
        object.__setattr__(self, "y", self.cod.check(y))
        object.__setattr__(self, "xstar", self.dom.dual().check(xstar))

    @property
    def domain(self):
        return self.dom

    @property
    def codomain(self):
        return self.cod


@dataclass(frozen=True, eq=False)
class Adjoint(OperatorExpr):
    child: OperatorExpr

    @property
    def domain(self):
        return self.child.codomain.dual()

    @property
    def codomain(self):
        return self.child.domain.dual()


@dataclass(frozen=True, eq=False)
class Lift(OperatorExpr):
    """T: W -> Z lifted to W (+)_p Z by (w, z) -> (0, T w)."""

    child: OperatorExpr
    outer_p: float

    def __post_init__(self):
        if isinstance(self.child.domain, SumSpace) or \
                isinstance(self.child.codomain, SumSpace):
            raise GeometryError("lift expects a plain-space operator")

    @property
    def sum_space(self) -> SumSpace:
        return SumSpace((self.child.domain, self.child.codomain), self.outer_p)

    @property
    def domain(self):
        return self.sum_space

    @property
    def codomain(self):
        return self.sum_space


@dataclass(frozen=True, eq=False)
class Delift(OperatorExpr):
    """S on W (+) Z squeezed back to w -> P_2 S(w, 0)."""

    child: OperatorExpr

    def __post_init__(self):
        d = self.child.domain
        if not (isinstance(d, SumSpace) and len(d.components) == 2
                and d == self.child.codomain):
            raise GeometryError("delift expects a square operator on a 2-block sum")

    @property
    def domain(self):
        return self.child.domain.components[0]

    @property
    def codomain(self):
        return self.child.domain.components[1]


@dataclass(frozen=True, eq=False)
class DirectSum(OperatorExpr):
    """Blockwise (T_1 (+) ... (+) T_k) on the outer_p sum of the domains."""

    children: tuple
    outer_p: float

    @property
    def domain(self):
        return SumSpace(tuple(c.domain for c in self.children), self.outer_p)

    @property
    def codomain(self):
        return SumSpace(tuple(c.codomain for c in self.children), self.outer_p)


@dataclass(frozen=True, eq=False)
class Scale(OperatorExpr):
    scalar: complex
    child: OperatorExpr

    def __post_init__(self):
        object.__setattr__(self, "scalar", _on_field(
            self.scalar, "scalar", self.domain, self.codomain))

    @property
    def domain(self):
        return self.child.domain

    @property
    def codomain(self):
        return self.child.codomain


def apply(T: OperatorExpr, x: np.ndarray) -> np.ndarray:
    """Exact expression-tree evaluation."""
    x = T.domain.check(x)
    if isinstance(T, Dense):
        return T.matrix @ x
    if isinstance(T, Diagonal):
        return (T.alphas() * x).astype(T.codomain.dtype, copy=False)
    if isinstance(T, RankOne):
        return (pair(T.xstar, x) * T.y).astype(T.codomain.dtype, copy=False)
    if isinstance(T, Adjoint):
        return to_matrix(T) @ x
    if isinstance(T, Lift):
        s = T.sum_space
        w, _z = s.split(x)
        zero = np.zeros(T.child.domain.dim, dtype=s.dtype)
        return s.join([zero, apply(T.child, w)])
    if isinstance(T, Delift):
        s = T.child.domain
        full = s.join([x, np.zeros(s.components[1].dim, dtype=s.dtype)])
        return s.split(apply(T.child, full))[1]
    if isinstance(T, DirectSum):
        blocks = T.domain.split(x)
        return T.codomain.join([apply(c, b) for c, b in zip(T.children, blocks)])
    if isinstance(T, Scale):
        return (T.scalar * apply(T.child, x)).astype(T.codomain.dtype, copy=False)
    raise TypeError(f"unknown operator node {type(T).__name__}")


def to_matrix(T: OperatorExpr) -> np.ndarray:
    """Materialize the operator as a dense matrix (codomain dim x domain dim)."""
    if isinstance(T, Dense):
        return T.matrix
    if isinstance(T, Diagonal):
        return np.diag(T.alphas())
    if isinstance(T, RankOne):
        return np.outer(T.y, T.xstar)
    if isinstance(T, Adjoint):
        return to_matrix(T.child).T
    if isinstance(T, Scale):
        return T.scalar * to_matrix(T.child)
    if isinstance(T, Lift):
        dw, dz = T.child.domain.dim, T.child.codomain.dim
        m = np.zeros((dw + dz, dw + dz), dtype=T.sum_space.dtype)
        m[dw:, :dw] = to_matrix(T.child)
        return m
    if isinstance(T, Delift):
        s = T.child.domain
        dw = s.components[0].dim
        return to_matrix(T.child)[dw:, :dw]
    if isinstance(T, DirectSum):
        mats = [to_matrix(c) for c in T.children]
        out = np.zeros((T.codomain.dim, T.domain.dim),
                       dtype=T.codomain.dtype)
        r = c = 0
        for m in mats:
            out[r:r + m.shape[0], c:c + m.shape[1]] = m
            r += m.shape[0]
            c += m.shape[1]
        return out
    raise TypeError(f"unknown operator node {type(T).__name__}")


def adjoint(T: OperatorExpr) -> OperatorExpr:
    """The adjoint as an expression node (transpose under the bilinear pairing)."""
    return Adjoint(T)


def identity(space) -> Dense:
    return Dense(np.eye(space.dim), space, space)


def functional(coeffs, dom: Space) -> Dense:
    """A scalar-valued operator x -> <coeffs, x>, represented as a 1-row Dense
    into a 1-dimensional space (any p gives the same scalar norm)."""
    coeffs = np.asarray(coeffs)
    cod = Space(2.0, 1, dom.field)
    return Dense(coeffs.reshape(1, -1), dom, cod)
