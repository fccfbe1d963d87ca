"""lp-type sequence-space geometry.

Norms, the bilinear dual pairing, duality maps, state pairs (x, x*) with
<x*, x> = 1, support-functional descriptors, and moduli of convexity.

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
from functools import cached_property, lru_cache

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
    """What Space and SumSpace share: the scalar field and the shape check."""

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
        profile = np.array([c.norm(b) for c, b in zip(self.components, self.split(v))])
        return lp_norm(profile, self.outer_p)

    def describe(self) -> dict:
        return {"outer_p": self.outer_p,
                "components": [c.describe() for c in self.components]}


def lp_norm(v: np.ndarray, p: float) -> float:
    """The lp norm; exact up to floating round-off for every p in [1, inf]."""
    a = np.abs(np.asarray(v))
    if a.size == 0:
        return 0.0
    if p == INF:
        return float(a.max())
    if p == 1:
        return float(a.sum())
    if p == 2:
        return float(np.sqrt((a * a).sum()))
    m = float(a.max())
    if m == 0.0:
        return 0.0
    return m * float(((a / m) ** p).sum()) ** (1.0 / p)


def lp_norm_rows(X: np.ndarray, p: float) -> np.ndarray:
    """lp_norm of every row of X, bit for bit: the same reductions over
    C-ordered rows (numpy sums other layouts in another order), and the
    final root through np.float_power, which rounds like Python's float
    power (the vectorized `**` may differ from it in the last bit)."""
    A = np.ascontiguousarray(np.abs(X))
    if A.shape[1] == 0:
        return np.zeros(A.shape[0])
    if p == INF:
        return A.max(axis=1)
    if p == 1:
        return A.sum(axis=1)
    if p == 2:
        return np.sqrt((A * A).sum(axis=1))
    m = A.max(axis=1)
    scaled = A / np.where(m == 0.0, 1.0, m)[:, None]
    return m * np.float_power((scaled ** p).sum(axis=1), 1.0 / p)


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
    """z/|z| elementwise, with the convention 0 -> 0."""
    z = np.asarray(z)
    a = np.abs(z)
    out = np.zeros_like(z)
    nz = a > 0
    out[nz] = z[nz] / a[nz]
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
                out.append(w * duality_map(b / a, c))
        return space.join(out)
    p = space.p
    if not (1.0 < p < INF):
        raise GeometryError("duality map is not single-valued for p in {1, inf}")
    x = space.check(x)
    a = np.abs(x)
    xstar = np.zeros_like(x)
    nz = a > 0
    xstar[nz] = np.conj(x[nz]) * a[nz] ** (p - 2.0)
    return xstar


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

def _superellipse(t: np.ndarray, p: float) -> np.ndarray:
    """Map angles to the unit sphere of lp^2 (columns are points)."""
    c, s = np.cos(t), np.sin(t)
    return np.stack([np.sign(c) * np.abs(c) ** (2.0 / p),
                     np.sign(s) * np.abs(s) ** (2.0 / p)])


@lru_cache(maxsize=4096)
def _modulus_convexity_numeric(p: float, eps: float) -> float:
    """inf {1 - ||(u+v)/2||_p : u, v unit in lp^2, ||u-v||_p >= eps}.

    Coarse feasible grid over the two sphere angles, then constrained
    refinement.  The 2-dimensional section is extremal for lp, so the value
    is the modulus of the full space for every dim >= 2.
    """
    from scipy.optimize import minimize

    grid = np.linspace(0.0, 2 * np.pi, 257)[:-1]
    pts = _superellipse(grid, p)                        # (2, n)
    diff = pts[:, :, None] - pts[:, None, :]            # (2, n, n)
    dist = (np.abs(diff) ** p).sum(axis=0) ** (1.0 / p)
    mid = (pts[:, :, None] + pts[:, None, :]) / 2.0
    midn = (np.abs(mid) ** p).sum(axis=0) ** (1.0 / p)
    feas = dist >= eps
    if not feas.any():
        return 1.0
    vals = np.where(feas, midn, -np.inf)
    flat = np.argsort(vals, axis=None)[::-1][:12]
    seeds = [(grid[i // len(grid)], grid[i % len(grid)]) for i in flat]

    def neg_mid(t):
        u = _superellipse(np.array([t[0]]), p)[:, 0]
        v = _superellipse(np.array([t[1]]), p)[:, 0]
        return -lp_norm((u + v) / 2.0, p)

    def gap(t):
        u = _superellipse(np.array([t[0]]), p)[:, 0]
        v = _superellipse(np.array([t[1]]), p)[:, 0]
        return lp_norm(u - v, p) - eps

    best = -max(vals.max(), 0.0)
    for s0 in seeds:
        res = minimize(neg_mid, np.array(s0), method="SLSQP",
                       constraints=[{"type": "ineq", "fun": gap}],
                       options={"maxiter": 400, "ftol": 1e-14})
        if res.success and gap(res.x) >= -1e-12:
            best = min(best, float(res.fun))
    # best == -(largest midpoint norm over the feasible set)
    return max(1.0 + best, 0.0)


def modulus_convexity(space, eps: float) -> float:
    """delta_X(eps) for an lp geometry, 1 < p < inf (exact closed form at
    p = 2, numeric two-dimensional reduction otherwise, ~1e-8 accurate)."""
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
    return _modulus_convexity_numeric(float(p), float(eps))


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
