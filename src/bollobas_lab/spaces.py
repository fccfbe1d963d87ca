"""lp-type sequence-space geometry.

Norms, the bilinear dual pairing, duality maps, state pairs (x, x*) with
<x*, x> = 1, support-functional descriptors, and moduli of convexity in
closed form (Clarkson for p >= 2, Hanner for 1 < p < 2).

Conventions used throughout the library:

* finite truncations only; a c_0 truncation and an l_inf truncation coincide,
  so both are represented by ``p = inf``;
* the pairing is bilinear (no complex conjugation); moduli are taken after
  pairing;
* state pairs are accepted up to the global tolerance ``PI_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, GeometryError

INF = math.inf

#: membership tolerance for the state set Pi(X)
PI_TOL = 1e-9


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1 (1 <-> inf)."""
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


class _Geometry:
    """What Space and SumSpace share: the scalar field and the check of a
    vector's shape and finiteness."""

    @property
    def is_complex(self) -> bool:
        return self.field == "complex"

    @property
    def dtype(self):
        return np.complex128 if self.is_complex else np.float64

    def check(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=self.dtype)
        if v.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected vector of shape ({self.dim},), got {v.shape}")
        if not np.isfinite(v).all():
            raise GeometryError("vector has a non-finite entry")
        return v


@dataclass(frozen=True)
class Space(_Geometry):
    """An lp^n geometry over the real or complex scalars.

    ``p = inf`` doubles as the finite truncation of c_0: the two coincide in
    finite dimension, and the infinite-dimensional distinction is carried by
    symbolic sequence descriptors, never by Space.
    """

    p: float
    dim: int
    field: str = "real"

    def __post_init__(self):
        if not (1.0 <= self.p):
            raise GeometryError(f"p must lie in [1, inf], got {self.p}")
        if self.dim < 1:
            raise GeometryError(f"dim must be >= 1, got {self.dim}")
        if self.field not in ("real", "complex"):
            raise GeometryError(f"field must be 'real' or 'complex', got {self.field!r}")

    def dual(self) -> "Space":
        return Space(conjugate_exponent(self.p), self.dim, self.field)

    def norm(self, v: np.ndarray) -> float:
        return lp_norm(self.check(v), self.p)

    def norm_rows(self, X: np.ndarray) -> np.ndarray:
        """norm of every row of X (R, dim), rounded as norm rounds."""
        return lp_norm_rows(X, self.p)

    def describe(self) -> dict:
        return {"p": self.p, "dim": self.dim, "field": self.field}


@dataclass(frozen=True)
class SumSpace(_Geometry):
    """A finite direct sum (W_1 + ... + W_k) normed by the outer_p norm of
    the component norms.  Vectors are stored flat, blocks concatenated."""

    components: tuple
    outer_p: float

    def __post_init__(self):
        if not self.components:
            raise GeometryError("SumSpace needs at least one component")
        if not (1.0 <= self.outer_p):
            raise GeometryError(f"outer_p must lie in [1, inf], got {self.outer_p}")
        fields = {c.field for c in self.components}
        if len(fields) != 1:
            raise GeometryError("all components must share a scalar field")

    # the layout (dim, offsets) is computed once per instance; cached_property
    # writes the instance __dict__ directly, which a frozen dataclass allows

    @cached_property
    def dim(self) -> int:
        return sum(c.dim for c in self.components)

    @property
    def field(self) -> str:
        return self.components[0].field

    def dual(self) -> "SumSpace":
        return SumSpace(tuple(c.dual() for c in self.components),
                        conjugate_exponent(self.outer_p))

    @cached_property
    def _offsets(self) -> tuple:
        out, pos = [], 0
        for c in self.components:
            out.append((pos, pos + c.dim))
            pos += c.dim
        return tuple(out)

    def offsets(self):
        return list(self._offsets)

    def split(self, v: np.ndarray):
        v = self.check(v)
        return [v[a:b] for a, b in self._offsets]

    def join(self, blocks) -> np.ndarray:
        return np.concatenate([np.asarray(b, dtype=self.dtype) for b in blocks])

    def norm(self, v: np.ndarray) -> float:
        return float(self.norm_rows(self.check(v)[None, :])[0])

    def norm_rows(self, X: np.ndarray) -> np.ndarray:
        """norm of every row of X (R, dim): the outer norm of each row's
        block profile; norm is its checked one-row call."""
        return lp_norm_rows(self.profile_rows(X), self.outer_p)

    def profile_rows(self, X: np.ndarray) -> np.ndarray:
        """The block norms of every row of X (R, dim), as (R, k)."""
        return block_rows(np.asarray(X), self._offsets,
                          [c.norm_rows for c in self.components])

    def describe(self) -> dict:
        return {"outer_p": self.outer_p,
                "components": [c.describe() for c in self.components]}


def block_rows(X: np.ndarray, offsets, fns) -> np.ndarray:
    """The (R, k) profile whose column i is fns[i](X[:, a:b]) for the i-th
    block (a, b) of offsets, filled in place."""
    out = np.empty((len(X), len(offsets)))
    for i, ((a, b), f) in enumerate(zip(offsets, fns)):
        out[:, i] = f(X[:, a:b])
    return out


def lp_norm(v: np.ndarray, p: float) -> float:
    """The lp norm of v (every entry, flattened) for p in [1, inf]: the
    one-row call of lp_norm_rows, the kernel, and rounded as it rounds."""
    return float(lp_norm_rows(np.asarray(v).reshape(1, -1), p)[0])


def lp_norm_rows(X: np.ndarray, p: float) -> np.ndarray:
    """The lp norm of every row of X (R, n) as floats, safe from overflow
    and underflow: the one lp-norm kernel and the only p-sum, of which
    lp_norm, _search.row_norms and the distance oracles of norm_attainment
    are calls.  At p = 2 a row whose sum of squares lies in [2^-960, 2^960],
    where it has neither underflowed nor overflowed, is sqrt(sum |x|^2).
    The other p = 2 rows, and every row at another finite p > 1, are scaled
    by their maximum m (Blue, ACM TOMS 4, 1978): m * (sum (|x|/m)^p)^(1/p),
    the root taken by np.float_power, which rounds like Python's float
    power.  Reductions run over C-ordered rows, so each row rounds alone."""
    A = np.ascontiguousarray(np.abs(X), dtype=np.float64)
    if A.size == 0:
        return np.zeros(len(A))
    # ufunc reductions round as the array methods, without their overhead
    if p == INF:
        return np.maximum.reduce(A, axis=1)
    if p == 1:
        return np.add.reduce(A, axis=1)
    if p != 2:
        return _scaled_norm_rows(A, p)
    # entries clamped to 2^500 square without overflow, and their rows
    # land above 2^960, so they are scaled
    C = np.minimum(A, 2.0 ** 500)
    squares = np.add.reduce(np.multiply(C, C, out=C), axis=1)
    out = np.sqrt(squares)
    # a list is quicker to test than an array for the few rows of most calls
    ends = squares.tolist() if len(A) <= 32 else [squares.min(),
                                                   squares.max()]
    if 2.0 ** -960 <= min(ends) and max(ends) <= 2.0 ** 960:
        return out
    # a zero row is exact
    far = ((squares < 2.0 ** -960) & (np.maximum.reduce(A, axis=1) > 0)) | \
        (squares > 2.0 ** 960)
    if np.count_nonzero(far):
        out[far] = _scaled_norm_rows(A[far], 2.0)
    return out


def _scaled_norm_rows(A: np.ndarray, p: float) -> np.ndarray:
    """m * (sum (a/m)^p)^(1/p) for every row a of A >= 0, m its maximum."""
    m = np.maximum.reduce(A, axis=1)
    # np.where only when a row is zero: on short rows it costs more than
    # the whole division
    safe = m if np.count_nonzero(m) == len(m) else np.where(m == 0.0, 1.0, m)
    scaled = A / safe[:, None]
    return m * np.float_power(np.add.reduce(scaled ** p, axis=1), 1.0 / p)


def pair(xstar: np.ndarray, x: np.ndarray):
    """Bilinear dual action sum_n x*(n) x(n); no conjugation."""
    xstar = np.asarray(xstar)
    x = np.asarray(x)
    if xstar.shape != x.shape:
        raise DimensionMismatchError(
            f"pairing shapes differ: {xstar.shape} vs {x.shape}")
    val = (xstar * x).sum()
    return complex(val) if np.iscomplexobj(val) else float(val)


def unit_phase(z):
    """z/|z| elementwise, with the convention 0 -> 0; an entry whose
    modulus is subnormal is divided as unit_rows divides it."""
    z = np.asarray(z)
    a = np.abs(z)
    out = np.zeros_like(z)
    nz = a >= 2.0 ** -1022
    out[nz] = z[nz] / a[nz]
    if np.count_nonzero(nz) < np.count_nonzero(a):     # a subnormal |z|
        small = (a > 0) & ~nz
        out[small] = unit_rows(z[small][:, None], a[small], INF)[:, 0]
    return out


def unit_rows(B: np.ndarray, n: np.ndarray, p: float) -> np.ndarray:
    """B / n[:, None] for rows B (R, k) of lp norms n (R,) > 0, rounded as
    that quotient.  numpy divides a complex B by n as B * (1/n), which
    overflows below 2^-1024, and a norm below 2^-1022 is rounded too
    coarsely to divide by: such a row is scaled by 2^600, exactly, and
    divided by the norm of the scaled row."""
    small = n < 2.0 ** -1022
    if not np.count_nonzero(small):
        return B / n[:, None]
    out = np.empty(B.shape, dtype=np.result_type(B, 1.0))
    out[~small] = B[~small] / n[~small, None]
    up = B[small] * 2.0 ** 600
    out[small] = up / lp_norm_rows(up, p)[:, None]
    return out


def duality_map(x: np.ndarray, space) -> np.ndarray:
    """The unique supporting functional of a unit vector for 1 < p < inf.

    Returns x* with <x*, x> = 1 and ||x*||_q = 1 under the bilinear pairing,
    i.e. x*(n) = conj(x(n)) |x(n)|^(p-2).
    """
    if isinstance(space, SumSpace):
        blocks = space.split(x)
        profile = np.array([c.norm(b) for c, b in zip(space.components, blocks)])
        if space.outer_p in (1.0, INF):
            raise GeometryError("duality map is not single-valued for outer p in {1, inf}")
        weights = profile ** (space.outer_p - 1.0)
        out = []
        for c, b, a, w in zip(space.components, blocks, profile, weights):
            if a == 0:
                out.append(np.zeros(c.dim, dtype=c.dtype))
            else:
                out.append(w * duality_map(
                    unit_rows(b[None, :], np.array([a]), c.p)[0], c))
        return space.join(out)
    p = space.p
    if not (1.0 < p < INF):
        raise GeometryError("duality map is not single-valued for p in {1, inf}")
    return duality_map_rows(space.check(x)[None, :], p)[0]


def duality_map_rows(X: np.ndarray, p: float) -> np.ndarray:
    """conj(x) |x|^(p-2) for every row x of X (R, n), a zero entry mapping
    to 0: the one duality-map kernel of the library, for 1 < p < inf, which
    duality_map and the support faces of numerical_radius call.  A unit row
    in lp maps to its unique supporting functional.  The map is
    elementwise, so each row rounds as it does alone."""
    X = np.asarray(X)
    A = np.abs(X)
    if np.count_nonzero(A) == A.size:       # no zero entry to mask
        return np.conj(X) * A ** (p - 2.0)
    out = np.zeros(X.shape, dtype=np.result_type(X, 1.0))
    nz = A > 0
    out[nz] = np.conj(X[nz]) * A[nz] ** (p - 2.0)
    return out


@dataclass(frozen=True)
class StatePair:
    """An element (x, x*) of Pi(X): unit vector, unit functional, <x*,x> = 1."""

    x: np.ndarray
    xstar: np.ndarray
    space: object

    def validate(self, tol: float = PI_TOL) -> None:
        s = self.space
        nx = s.norm(self.x)
        nxs = s.dual().norm(self.xstar)
        pv = pair(self.xstar, self.x)
        if abs(nx - 1.0) > tol:
            raise GeometryError(f"||x|| = {nx} is not 1 within {tol}")
        if abs(nxs - 1.0) > tol:
            raise GeometryError(f"||x*|| = {nxs} is not 1 within {tol}")
        if abs(pv - 1.0) > tol:
            raise GeometryError(f"<x*, x> = {pv} is not 1 within {tol}")

    def is_valid(self, tol: float = PI_TOL) -> bool:
        try:
            self.validate(tol)
            return True
        except GeometryError:
            return False


def state_pair(x, space, xstar=None, tol: float = PI_TOL) -> StatePair:
    """Build a validated state pair; x* defaults to the duality map."""
    x = space.check(x)
    if xstar is None:
        xstar = duality_map(x, space)
    sp = StatePair(x=x, xstar=space.dual().check(xstar), space=space)
    sp.validate(tol)
    return sp


class SupportStates:
    """Descriptor of the supporting functionals {x* : (x, x*) in Pi(X)} of a
    unit vector x.

    kind 'unique'       -- 1 < p < inf: the duality map, a single point.
    kind 'l1_box'       -- p = 1: coordinates on supp(x) are pinned to the
                           aligned phase, the rest range over the unit disc.
    kind 'linf_simplex' -- p = inf: convex combinations t over the peak set
                           {n : |x(n)| = 1}, x*(n) = t_n conj(phase x(n)).
    """

    def __init__(self, kind, space, x, fixed=None, fixed_mask=None, peaks=None):
        self.kind = kind
        self.space = space
        self.x = x
        self.fixed = fixed
        self.fixed_mask = fixed_mask
        self.peaks = peaks

    def sample(self, rng: np.random.Generator, count: int = 1):
        s = self.space
        out = []
        for _ in range(count):
            if self.kind == "unique":
                out.append(self.fixed.copy())
            elif self.kind == "l1_box":
                xs = self.fixed.copy()
                free = ~self.fixed_mask
                if s.is_complex:
                    r = rng.uniform(0, 1, free.sum())
                    th = rng.uniform(0, 2 * np.pi, free.sum())
                    xs[free] = r * np.exp(1j * th)
                else:
                    xs[free] = rng.uniform(-1, 1, free.sum())
                out.append(xs)
            elif self.kind == "linf_simplex":
                t = rng.uniform(0, 1, len(self.peaks))
                t /= t.sum()
                xs = np.zeros(s.dim, dtype=s.dtype)
                for w, n in zip(t, self.peaks):
                    xn = self.x[n]
                    xs[n] = w * np.conj(xn / abs(xn))
                out.append(xs)
            else:
                raise GeometryError(f"unknown support kind {self.kind}")
        return out

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "l1_box":
            d["fixed_indices"] = np.nonzero(self.fixed_mask)[0].tolist()
        if self.kind == "linf_simplex":
            d["peak_indices"] = list(self.peaks)
        return d


def support_states(x: np.ndarray, space: Space, tol: float = PI_TOL) -> SupportStates:
    """All supporting functionals of a unit vector, as a descriptor."""
    x = space.check(x)
    if abs(space.norm(x) - 1.0) > tol:
        raise GeometryError("support_states requires a unit vector")
    p = space.p
    if 1.0 < p < INF:
        return SupportStates("unique", space, x, fixed=duality_map(x, space))
    if p == 1:
        mask = np.abs(x) > 0
        fixed = np.zeros_like(x)
        fixed[mask] = np.conj(unit_phase(x[mask]))
        return SupportStates("l1_box", space, x, fixed=fixed, fixed_mask=mask)
    peaks = [int(n) for n in np.nonzero(np.abs(np.abs(x) - 1.0) <= tol)[0]]
    if not peaks:
        raise GeometryError("sup-norm unit vector has no peak coordinate")
    return SupportStates("linf_simplex", space, x, peaks=tuple(peaks))


# ---------------------------------------------------------------------------
# modulus of convexity
# ---------------------------------------------------------------------------

def largest_feasible(ok) -> float:
    """The largest t in [0, 1] with ok(t), for ok true at 0 and monotone, by
    at most 200 halvings of [0, 1]: they stop once the midpoint rounds to
    an end that ok has decided, as further ones would leave lo as it is."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo:
            break
        if ok(mid):
            lo = mid
        elif mid == hi:
            break
        else:
            hi = mid
    return lo


def _powm1(x: float, p: float) -> float:
    """(1 + x)^p - 1 for x >= -1, without cancellation near x = 0."""
    return math.expm1(p * math.log1p(x)) if x > -1.0 else -1.0


def _hanner(p: float, a: float) -> float:
    """delta_p(2a) for 1 < p < 2 and a < 1: the root delta of Hanner's
    (1 - delta + a)^p + |1 - delta - a|^p = 2, whose left side falls in
    delta.  Either side of 1 - delta = a it is tested without cancellation:
    ((1 + a - delta)^p - 1) + ((1 - a - delta)^p - 1) >= 0 above, and
    (1 + r)^p + (1 - r)^p >= 2 / a^p with r = (1 - delta) / a below."""

    def ok(d):
        if d + a < 1.0:
            return _powm1(a - d, p) + _powm1(-a - d, p) >= 0.0
        r = (1.0 - d) / a
        return _powm1(r, p) + _powm1(-r, p) >= \
            2.0 * math.expm1(-p * math.log(a))

    return largest_feasible(ok)


def modulus_convexity(space, eps: float) -> float:
    """delta_X(eps) of lp^n, n >= 2, 1 < p < inf, in closed form: Clarkson's
    1 - (1 - (eps/2)^p)^(1/p) for p >= 2 (Trans. AMS 40, 1936), Hanner's
    equation solved by bisection for p < 2 (Ark. Mat. 3, 1956).  Within
    1e-11 relative for eps in [0.01, 2] and 1e-7 for eps in [1e-5, 0.01),
    at p from 1.01 to 10; exactly 1 at eps = 2."""
    if isinstance(space, SumSpace):
        raise GeometryError("modulus of convexity on sum spaces is not supported")
    p = space.p
    if not (1.0 < p < INF):
        raise GeometryError(f"lp with p = {p} is not uniformly convex")
    if not (0.0 < eps <= 2.0):
        raise GeometryError(f"eps must lie in (0, 2], got {eps}")
    if p == 2:
        return 1.0 - math.sqrt(max(0.0, 1.0 - (eps / 2.0) ** 2))
    if space.dim == 1:
        return 1.0
    a, p = float(eps) / 2.0, float(p)
    if a == 1.0:                    # only u = -v are 2 apart
        return 1.0
    if p < 2:
        return _hanner(p, a)
    # -expm1(log(1 - t) / p) with t = a^p keeps the digits that the written
    # form cancels (p = 4, eps = 1e-4); past t = 1/2, 1 - t is -expm1(p log a)
    t = a ** p
    rest = math.log1p(-t) if t < 0.5 else \
        math.log(-math.expm1(p * math.log(a)))
    return -math.expm1(rest / p)


def random_unit(space, rng: np.random.Generator) -> np.ndarray:
    """A deterministic-in-seed random unit vector of the space.

    On a SumSpace each block is drawn in turn, then the block norms are set
    by a profile drawn uniformly from [0.2, 1] and normalized in outer_p.
    """
    if isinstance(space, SumSpace):
        blocks = [random_unit(c, rng) for c in space.components]
        profile = rng.uniform(0.2, 1.0, len(blocks))
        profile /= lp_norm(profile, space.outer_p)
        return space.join([t * b for t, b in zip(profile, blocks)])
    if space.is_complex:
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    else:
        v = rng.normal(size=space.dim)
    n = space.norm(v)
    if n == 0:
        v = np.zeros(space.dim, dtype=space.dtype)
        v[0] = 1.0
        return v
    return (v / n).astype(space.dtype)
