"""Two properties every attaining-set descriptor has, flat and on sums.

A norming-set descriptor gives the distance of x to a set S, and an
attaining-state descriptor the pair (dx, dxs) of the nearest of its options,
each component the distance of x or x* to that option's part.  So

* the distance is 0 on the descriptor's own sample() points, which are
  state pairs (the explicit kinds here list arbitrary pairs), and
* the distance is 1-Lipschitz: |d(x) - d(x')| <= ||x - x'||, and for pairs
  max(dx, dxs) moves by at most max(||x - x'||, ||x* - x*'||_dual).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas_lab.gallery import CornerNuStates, LiftedRank1NuStates
from bollobas_lab.norm_attainment import (LiftedNormingSet,
                                          NormingSetDescriptor,
                                          UnionNormingSet)
from bollobas_lab.numerical_radius import (DiagonalNuStates, ExplicitNuStates,
                                           HilbertNuStates)
from bollobas_lab.operators import Dense, Scale
from bollobas_lab.spaces import INF, Space, StatePair, SumSpace, duality_map
from bollobas_lab.sums import LiftNuStates

# the phase-orbit distances of complex explicit lists minimize over the
# phase numerically (a 64-point grid, then golden section to 1e-12 or 1e-13)
TOL = 1e-9

NORMING_KINDS = ("support_constrained", "coordinate_unimodular",
                 "explicit_list", "explicit_free", "subspace", "union",
                 "lifted")
NU_KINDS = ("diagonal", "hilbert", "explicit", "explicit_free", "lift",
            "lifted_rank1", "corner")

cases = st.tuples(st.booleans(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))


def _gauss(rng, shape, cx):
    g = rng.normal(size=shape)
    return g + 1j * rng.normal(size=shape) if cx else g


def _subset(rng, d):
    return tuple(sorted(rng.choice(d, size=rng.integers(1, d + 1),
                                   replace=False).tolist()))


def _norming_set(kind, rng, cx, dim):
    field = "complex" if cx else "real"
    if kind == "lifted":
        inner = _norming_set(str(rng.choice(NORMING_KINDS[:-2])), rng, cx,
                             dim)
        cod = Space(float(rng.choice([1.0, 2.0, 3.0, INF])),
                    int(rng.integers(1, 4)), field)
        outer = float(rng.choice([1.0, 1.5, 3.0, INF]))
        return LiftedNormingSet(inner, SumSpace((inner.space, cod), outer))
    if kind == "union":
        parts = [_norming_set(k, rng, cx, dim)
                 for k in ("support_constrained", "explicit_list")]
        parts[1].space = parts[0].space
        union = UnionNormingSet(parts)
        union.space = parts[0].space
        return union
    if kind == "subspace":
        space = Space(2.0, dim, field)
        basis = np.linalg.qr(_gauss(rng, (dim, int(rng.integers(1, dim + 1))),
                                    cx))[0]
        return NormingSetDescriptor("subspace", space=space, basis=basis)
    if kind == "coordinate_unimodular":
        return NormingSetDescriptor("coordinate_unimodular",
                                    space=Space(INF, dim, field),
                                    J=_subset(rng, dim))
    space = Space(float(rng.choice([1.0, 1.5, 2.0, 3.0, INF])), dim, field)
    if kind == "support_constrained":
        return NormingSetDescriptor("support_constrained", space=space,
                                    J=_subset(rng, dim))
    points = tuple(_gauss(rng, dim, cx).astype(space.dtype)
                   for _ in range(rng.integers(1, 3)))
    free = None
    if kind == "explicit_free":
        free = rng.uniform(size=dim) < 0.4
        free = free if free.any() else None
    return NormingSetDescriptor("explicit_list", space=space, points=points,
                                phase_orbit=bool(rng.integers(2)),
                                free_mask=free)


def _norm_one_hilbert(rng, dim, cod_dim, cx):
    field = "complex" if cx else "real"
    M = _gauss(rng, (cod_dim, dim), cx)
    return Scale(1.0 / np.linalg.norm(M, 2),
                 Dense(M, Space(2.0, dim, field), Space(2.0, cod_dim, field)))


def _nu_states(kind, rng, cx, dim):
    field = "complex" if cx else "real"
    if kind == "lift":
        T = _norm_one_hilbert(rng, dim, int(rng.integers(1, dim + 2)), cx)
        return LiftNuStates(T, float(rng.choice([1.0, INF])))
    if kind == "lifted_rank1":
        return LiftedRank1NuStates(dim)
    if kind == "corner":
        return CornerNuStates(dim, float(rng.choice([1.0, INF])))
    if kind == "hilbert":
        space = Space(2.0, dim)
        bases = [np.linalg.qr(rng.normal(size=(dim, int(rng.integers(
            1, dim + 1)))))[0] for _ in range(rng.integers(1, 3))]
        return HilbertNuStates(space, bases)
    space = Space(float(rng.choice([1.0, 1.5, 2.0, 3.0, INF])), dim, field)
    if kind == "diagonal":
        groups = {}
        for n in _subset(rng, dim):
            groups.setdefault(int(rng.integers(2)), []).append(n)
        return DiagonalNuStates(space, {k: tuple(v)
                                        for k, v in groups.items()})
    pairs, free_x, free_xs = [], [], []
    for _ in range(rng.integers(1, 3)):
        x = _gauss(rng, dim, cx)
        x = (x / space.norm(x)).astype(space.dtype)
        xs = duality_map(x, space) if 1 < space.p < INF else \
            _gauss(rng, dim, cx).astype(space.dtype)
        pairs.append(StatePair(x, xs, space))
        masks = rng.uniform(size=(2, dim)) < 0.4
        free_x.append(masks[0] if masks[0].any() else None)
        free_xs.append(masks[1] if masks[1].any() else None)
    if kind == "explicit":
        free_x = free_xs = None
    return ExplicitNuStates(space, pairs, phase_orbit=bool(rng.integers(2)),
                            free_x_masks=free_x, free_xstar_masks=free_xs)


def _moves(rng, space, z, count):
    """Points around z: steps of several scales in random directions."""
    scales = rng.choice([1e-3, 0.1, 1.0], size=(count, 1))
    return z + scales * _gauss(rng, (count, space.dim), space.is_complex)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NORMING_KINDS), cases)
def test_norming_distance_is_zero_on_samples_and_1_lipschitz(kind, case):
    cx, dim, seed = case
    rng = np.random.default_rng(seed)
    desc = _norming_set(kind, rng, cx, dim)
    space = desc.space
    for z in desc.sample(rng, 3):
        assert desc.distance(z) <= TOL
        X = _moves(rng, space, np.asarray(z, dtype=space.dtype), 6)
        d = desc.distance_rows(X)
        for i in range(len(X)):
            for j in range(i):
                gap = space.norm(X[i] - X[j])
                assert abs(d[i] - d[j]) <= gap + TOL


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NU_KINDS), cases)
def test_nu_pair_distance_is_zero_on_samples_and_1_lipschitz(kind, case):
    cx, dim, seed = case
    rng = np.random.default_rng(seed)
    desc = _nu_states(kind, rng, cx, dim)
    space, dual = desc.space, desc.space.dual()
    for sp in desc.sample(rng, 3):
        if not kind.startswith("explicit"):     # those list arbitrary pairs
            sp.validate()
        assert max(desc.pair_distance(sp.x, sp.xstar)) <= TOL
        X = _moves(rng, space, np.asarray(sp.x, dtype=space.dtype), 6)
        XS = _moves(rng, dual, np.asarray(sp.xstar, dtype=space.dtype), 6)
        d = desc.pair_distance_rows(X, XS).max(axis=1)
        for i in range(len(X)):
            for j in range(i):
                gap = max(space.norm(X[i] - X[j]), dual.norm(XS[i] - XS[j]))
                assert abs(d[i] - d[j]) <= gap + TOL
