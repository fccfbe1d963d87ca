"""Row forms of the distance oracles against their one-vector references.

Every distance_rows, pair_distance_rows and best_state_functional_rows must
agree with the scalar bodies kept in tests/_oracles.py, and the batched
boundary-seed search must return the seeds of the scalar ITP search, in the
same order.  Those seeds are feasible by the scalar distances, and the
probes find no worse eta_hat with them than with the 40-step bisection they
replaced.  On sums the support face, the alignment maps, the norm and
the attaining-set descriptors must agree with them bit for bit.  The
attaining-pair descriptors and the explicit norming points must also agree
bit for bit with the row bodies that the pair options replaced.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from bollobas_lab._search import (dual_align_in, dual_align_vec,
                                  matvec_rows, primal_align_in,
                                  primal_align_vec)
from bollobas_lab.errors import DimensionMismatchError, GeometryError
from bollobas_lab.gallery import CornerNuStates, LiftedRank1NuStates
from bollobas_lab.norm_attainment import (LiftedNormingSet,
                                          NormingSetDescriptor,
                                          UnionNormingSet, norming_set)
from bollobas_lab.numerical_radius import (DiagonalNuStates, EmptyNuStates,
                                           ExplicitNuStates, HilbertNuStates,
                                           best_state_functional_rows,
                                           face_sup, face_sup_rows,
                                           nu_attaining_states)
from bollobas_lab.operators import Dense, Diagonal, Scale, to_matrix
from bollobas_lab import probe, spaces
from bollobas_lab.probe import (FEAS_TOL, ProbeBudget, _boundary_seeds,
                                _state_dist_rows, eta_probe_norm,
                                eta_probe_nu)
from bollobas_lab.sequences import ConstantTail, SequenceSpec
from bollobas_lab.spaces import INF, Space, StatePair, SumSpace, duality_map
from bollobas_lab.sums import LiftNuStates

TOL = 1e-12
EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)

cases = st.tuples(st.sampled_from(EXPONENTS), st.booleans(),
                  st.integers(1, 12), st.integers(0, 2 ** 32 - 1))


def _space(p, cx, dim):
    return Space(p, dim, "complex" if cx else "real")


def _gauss(rng, shape, cx):
    g = rng.normal(size=shape)
    return g + 1j * rng.normal(size=shape) if cx else g


def _phases(rng, shape, cx):
    if cx:
        return np.exp(2j * np.pi * rng.uniform(size=shape))
    return rng.choice([-1.0, 1.0], size=shape)


def _rows(rng, space, count=6):
    """Unit rows, a zero row, a sparse row, and a row with several exact
    sup-norm peaks (|x(n)| = 1 exactly)."""
    d, cx = space.dim, space.is_complex
    X = _gauss(rng, (count, d), cx)
    X /= np.array([space.norm(x) for x in X])[:, None]
    zero = np.zeros((1, d), dtype=space.dtype)
    sparse = np.zeros((1, d), dtype=space.dtype)
    sparse[0, rng.choice(d, size=min(d, 3), replace=False)] = \
        _gauss(rng, min(d, 3), cx)
    peaks = _gauss(rng, (1, d), cx) * 0.3
    hit = rng.choice(d, size=rng.integers(1, d + 1), replace=False)
    peaks[0, hit] = _phases(rng, len(hit), cx)
    return np.concatenate([X, zero, sparse, peaks]).astype(space.dtype)


def _subset(rng, d):
    return tuple(sorted(rng.choice(d, size=rng.integers(1, d + 1),
                                   replace=False).tolist()))


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


def _norming_sets(rng, space):
    p, d = space.p, space.dim
    sets = [NormingSetDescriptor("empty"),
            NormingSetDescriptor("support_constrained", space=space,
                                 J=_subset(rng, d)),
            NormingSetDescriptor("coordinate_unimodular", space=space,
                                 J=_subset(rng, d))]
    for orbit in (False, True):
        pts = tuple(x for x in _rows(rng, space, 2)[:2])
        free = rng.uniform(size=d) < 0.3
        sets.append(NormingSetDescriptor("explicit_list", space=space,
                                         points=pts, phase_orbit=orbit))
        sets.append(NormingSetDescriptor(
            "explicit_list", space=space, points=pts[:1], phase_orbit=orbit,
            free_mask=free if free.any() else None))
    if p == 2:
        k = int(rng.integers(1, d + 1))
        basis, _r = np.linalg.qr(_gauss(rng, (d, k), space.is_complex))
        sets.append(NormingSetDescriptor("subspace", space=space,
                                         basis=basis))
    sets.append(UnionNormingSet(sets[1:3]))
    return sets


@settings(max_examples=40, deadline=None)
@given(cases)
def test_distance_rows_match_scalar_oracle(case):
    p, cx, dim, seed = case
    rng = np.random.default_rng(seed)
    space = _space(p, cx, dim)
    X = _rows(rng, space)
    for desc in _norming_sets(rng, space):
        got = desc.distance_rows(X)
        assert got.shape == (len(X),)
        _close(got, [oracle.norming_distance(desc, x) for x in X])
        _close(desc.distance(X[0]), got[0])


def _nu_states(rng, space):
    p, d, cx = space.p, space.dim, space.is_complex
    groups = {}
    for n in _subset(rng, d):
        groups.setdefault(int(rng.integers(2)), []).append(n)
    out = [EmptyNuStates(),
           DiagonalNuStates(space, {k: tuple(v) for k, v in groups.items()})]
    pairs, free_x, free_xs = [], [], []
    for x in _rows(rng, space, 2)[:2]:
        if 1 < p < INF:
            xs = duality_map(x, space)
        else:
            xs = _gauss(rng, d, cx)
        pairs.append(StatePair(x, xs.astype(space.dtype), space))
        fx, fxs = rng.uniform(size=d) < 0.3, rng.uniform(size=d) < 0.3
        free_x.append(fx if fx.any() else None)
        free_xs.append(fxs if fxs.any() else None)
    for orbit in (False, True):
        out.append(ExplicitNuStates(space, pairs, phase_orbit=orbit))
        out.append(ExplicitNuStates(space, pairs, phase_orbit=orbit,
                                    free_x_masks=free_x,
                                    free_xstar_masks=free_xs))
    if p == 2:
        bases = [np.linalg.qr(_gauss(rng, (d, int(rng.integers(1, d + 1))),
                                     cx))[0] for _ in range(2)]
        out.append(HilbertNuStates(space, bases))
    return out


@settings(max_examples=40, deadline=None)
@given(cases)
def test_pair_distance_rows_match_scalar_oracle(case):
    p, cx, dim, seed = case
    rng = np.random.default_rng(seed)
    space = _space(p, cx, dim)
    X = _rows(rng, space)
    XS = _rows(rng, space.dual())
    for desc in _nu_states(rng, space):
        got = desc.pair_distance_rows(X, XS)
        assert got.shape == (len(X), 2)
        want = np.array([oracle.nu_pair_distance(desc, x, xs)
                         for x, xs in zip(X, XS)])
        one = np.array([desc.pair_distance(X[0], XS[0])])
        if cx and isinstance(desc, ExplicitNuStates) and desc.phase_orbit:
            # the phase search minimizes max(dx, dxs); where one component
            # dominates, rounding-level ties may move the other one
            got, want, one = (a.max(axis=1) for a in (got, want, one))
        _close(got, want)
        _close(one[0], got[0])


@settings(max_examples=40, deadline=None)
@given(cases)
def test_option_rows_match_parent_row_bodies(case):
    # the union of pair options and offset_rows against the row bodies they
    # replaced, bit for bit, complex phase orbits included
    p, cx, dim, seed = case
    rng = np.random.default_rng(seed)
    space = _space(p, cx, dim)
    X, XS = _rows(rng, space), _rows(rng, space.dual())
    for desc in _norming_sets(rng, space):
        assert np.array_equal(desc.distance_rows(X),
                              oracle.norming_distance_rows(desc, X))
    T = _lift_operator(rng, 1 + dim % 5, cx)
    sums = [LiftNuStates(T, 1.0), LiftNuStates(T, INF)]
    gallery = [CornerNuStates(dim, 1.0), CornerNuStates(dim, INF),
               LiftedRank1NuStates(dim)]
    pairs = [(desc, X, XS) for desc in _nu_states(rng, space)]
    pairs += [(desc, _rows(rng, desc.space), _rows(rng, desc.space.dual()))
              for desc in sums]
    pairs += [(desc, *_near_pairs(rng, desc)) for desc in gallery]
    for desc, A, B in pairs:
        assert np.array_equal(desc.pair_distance_rows(A, B),
                              oracle.pair_distance_rows(desc, A, B))


@settings(max_examples=60, deadline=None)
@given(cases)
def test_best_state_functional_rows_match_scalar_oracle(case):
    p, cx, dim, seed = case
    rng = np.random.default_rng(seed)
    space = _space(p, cx, dim)
    X = _rows(rng, space)
    Y = _gauss(rng, X.shape, cx)
    Y[-1] = 0.0                                 # a zero y as well
    vals, XS = best_state_functional_rows(Y, X, space)
    assert XS.dtype == space.dtype
    for i, (y, x) in enumerate(zip(Y, X)):
        if p == INF and not (np.abs(np.abs(x) - 1.0) <= 1e-9).any():
            # no peak coordinate: the scalar body has no state to return
            assert vals[i] == 0.0 and not XS[i].any()
            continue
        v, xs = oracle.best_state_functional(y, x, space)
        _close(vals[i], v)
        _close(XS[i], xs)


def test_sup_norm_ties_keep_the_first_peak():
    space = Space(INF, 4, "complex")
    x = np.array([1.0, 0.2, -1.0, 1j])
    y = np.array([2.0, 5.0, 2.0, -2j])
    vals, XS = best_state_functional_rows(y[None, :], x[None, :], space)
    assert vals[0] == 2.0
    np.testing.assert_array_equal(XS[0], [1.0, 0, 0, 0])


def _diagonal(p, cx, dim, rng):
    """A norm-one diagonal with two unimodular phases and a sub-unit tail."""
    head = tuple(_phases(rng, 2, cx).tolist())
    spec = SequenceSpec(head + tuple(rng.uniform(0.2, 0.8, 2).tolist()),
                        ConstantTail(0.5))
    return Diagonal(spec, _space(p, cx, dim))


DIAGONAL_GRID = pytest.mark.parametrize("p,cx,dim", [
    (p, cx, dim) for dim in (6, 60)
    for p, cx in ((1.0, False), (1.5, True), (2.0, False), (3.0, False),
                  (INF, True))])


def _boundary_probes(p, cx, dim, rng):
    """A norm-one diagonal of the grid, and for its norm and nu probes the
    row distance, the scalar oracle distance and two base points."""
    T = _diagonal(p, cx, dim, rng)
    space, M = T.domain, to_matrix(T)
    norm_desc = norming_set(T)
    nu_desc = nu_attaining_states(T)

    def nu_dist(x):
        _v, xs = oracle.best_state_functional(M @ x, x, space)
        return max(oracle.nu_pair_distance(nu_desc, x, xs))

    return T, [(norm_desc.distance_rows,
                lambda x: oracle.norming_distance(norm_desc, x),
                norm_desc.sample(rng, 2)),
               (_state_dist_rows(nu_desc, M, space), nu_dist,
                [sp.x for sp in nu_desc.sample(rng, 2)])]


@DIAGONAL_GRID
def test_boundary_seeds_match_scalar_bisection(p, cx, dim):
    # the scalar reference is oracle.boundary_seeds, one ITP search per
    # (base, direction) pair; the name predates the ITP search
    T, probes = _boundary_probes(p, cx, dim, np.random.default_rng(dim))
    space, eps = T.domain, 0.3
    for dist_rows, dist_of, bases in probes:
        got = _seeds_at(space, dist_rows, eps, bases,
                        np.random.default_rng(7))
        want = oracle.boundary_seeds(space, dist_of, eps, bases,
                                     np.random.default_rng(7))
        assert want and len(got) == len(want)
        for g, w in zip(got, want):
            _close(g, w)


def _seeds_at(space, dist_rows, eps, bases, rng):
    """probe._boundary_seeds of the grid of one eps."""
    ends = probe._segment_ends(space, dist_rows, bases, rng)
    return [x for _k, x in _boundary_seeds(space, dist_rows, [eps], ends)]


def _bisection_seeds(space, dist_rows, eps, ends):
    """probe._boundary_seeds as oracle.boundary_seeds_bisection finds them
    at each eps, from the bases toward the coordinates of the ends."""
    bases, _d0, dirs, _d1 = ends
    coords = np.flatnonzero(np.abs(dirs).sum(axis=0))
    drawn = SimpleNamespace(choice=lambda d, size, replace: coords)
    return [(k, x) for k, e in enumerate(eps)
            for x in oracle.boundary_seeds_bisection(
                space, lambda x: float(dist_rows(x[None, :])[0]), e, bases,
                drawn)]


def _bisection_pullbacks(T):
    """probe._itp_rows for the norm walk's pullbacks of T, each row searched
    as oracle.pullback_bisection searches it: it yields each row's best
    feasible point once, which the walk folds as it folds an ITP step."""
    M, cod = to_matrix(T), T.codomain

    def value_of(x):
        return float(cod.norm_rows(matvec_rows(M, x[None, :]))[0])

    def itp_rows(X_hi, X_lo, _D_hi, _D_lo, bits, space, dist_rows, eps):
        assert bits == 30
        eps = np.broadcast_to(eps, len(X_hi))
        for i, (hi, lo) in enumerate(zip(X_hi, X_lo)):
            best = oracle.pullback_bisection(
                value_of, lambda x: float(dist_rows(x[None, :])[0]), hi, lo,
                eps[i], space)
            if best is not None:
                yield np.array([i]), best[2][None, :], np.array([best[1]])
    return itp_rows


@DIAGONAL_GRID
def test_itp_seeds_are_feasible_and_no_worse_than_bisection(p, cx, dim,
                                                          monkeypatch):
    T, probes = _boundary_probes(p, cx, dim, np.random.default_rng(dim))
    space = T.domain
    budget = ProbeBudget(16, 300)
    for eps in (0.15, 0.5):
        for dist_rows, dist_of, bases in probes:
            seeds = _seeds_at(space, dist_rows, eps, bases,
                              np.random.default_rng(7))
            assert all(dist_of(x) >= eps - FEAS_TOL for x in seeds)
        itp = [probe_fn(T, eps, budget=budget, seed=dim)
               for probe_fn in (eta_probe_norm, eta_probe_nu)]
        with monkeypatch.context() as m:
            m.setattr(probe, "_boundary_seeds", _bisection_seeds)
            m.setattr(probe, "_itp_rows", _bisection_pullbacks(T))
            bisected = [probe_fn(T, eps, budget=budget, seed=dim)
                        for probe_fn in (eta_probe_norm, eta_probe_nu)]
        for new, old in zip(itp, bisected):
            assert new.eta_hat <= old.eta_hat + 1e-9, (eps, new.mode)


# ---------------------------------------------------------------------------
# sums: the support face and the lift descriptors, bit for bit
# ---------------------------------------------------------------------------

def _bits(v):
    a = np.asarray(v)
    return (a.dtype.str, a.shape, a.tobytes())


def _value_bits(v):
    return np.float64(v).tobytes()


def _sum_block(rng, c, mode):
    """One block of x: Gaussian, real-valued, with zero entries, zero
    (massless), or, on a sup-norm block, several exact peaks."""
    cx = c.is_complex
    v = _gauss(rng, c.dim, cx)
    if mode == "real":
        v = v.real
    elif mode == "zeros":
        v[rng.uniform(size=c.dim) < 0.5] = 0.0
    elif mode == "massless":
        v = np.zeros(c.dim)
    elif mode == "peaks" and c.p == INF:
        hit = rng.uniform(size=c.dim) < 0.7
        v = np.where(hit, _phases(rng, c.dim, cx), 0.3 * v)
    return v.astype(c.dtype)


def _sum_components(rng, field):
    """1-3 blocks drawn one by one; or, a third of the time each, 2-3
    blocks of one geometry (the lifts', G-CORNER's and psum's shape: one
    block group), blocks of up to 10 entries so that numpy's pairwise sums
    take over; or 3 blocks whose first and last share a geometry (a group
    of blocks that are not adjacent)."""
    def block(dim=None):
        return Space(float(rng.choice(EXPONENTS)),
                     int(rng.integers(1, 5)) if dim is None else dim, field)

    shape = rng.integers(3)
    if shape == 0:
        return tuple(block() for _ in range(rng.integers(1, 4)))
    if shape == 1:
        return (block(int(rng.integers(1, 11))),) * int(rng.integers(2, 4))
    outer = block()
    return (outer, block(outer.dim % 4 + 1), outer)


def _sum_rows(rng, outer, cx):
    """A sum (_sum_components) and rows (x, y) of mixed shapes: each row
    picks its own massless blocks, zero entries and peak sets; some y are
    zero in places or real-valued, and on a peak block some y repeat x's
    phases (tied Minkowski points)."""
    comps = _sum_components(rng, "complex" if cx else "real")
    space = SumSpace(comps, outer)
    X, Y = [], []
    for _ in range(rng.integers(1, 7)):
        modes = rng.choice(["gauss", "real", "zeros", "massless", "peaks"],
                           size=len(comps))
        x = space.join([_sum_block(rng, c, m) for c, m in zip(comps, modes)])
        if space.norm(x) == 0:
            x[0] = 1.0
        x = x / space.norm(x)
        y = _gauss(rng, space.dim, cx)
        if rng.uniform() < 0.3:
            y[rng.uniform(size=space.dim) < 0.5] = 0.0
        if rng.uniform() < 0.2:
            y = y.real.astype(space.dtype)
        for c, (a, b), m in zip(comps, space.offsets(), modes):
            if c.p == INF and m == "peaks" and rng.uniform() < 0.5:
                y[a:b] = 2.0 * x[a:b]
        X.append(x)
        Y.append(y.astype(space.dtype))
    return space, np.array(X), np.array(Y)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1.0, 1.5, 3.0, INF]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_sum_face_rows_match_scalar_oracle(outer, cx, seed):
    space, X, Y = _sum_rows(np.random.default_rng(seed), outer, cx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, XS = best_state_functional_rows(Y, X, space)
        only = face_sup_rows(Y, X, space)
        ones = [best_state_functional_rows(Y[i:i + 1], X[i:i + 1], space)
                for i in range(len(X))]
    assert XS.dtype == space.dtype and XS.shape == X.shape
    for i, (y, x) in enumerate(zip(Y, X)):
        value, assemble = oracle.sum_face(y, x, space)
        assert _value_bits(vals[i]) == _value_bits(value)
        assert _value_bits(only[i]) == _value_bits(value)
        assert _bits(XS[i]) == _bits(assemble())
        assert _value_bits(ones[i][0][0]) == _value_bits(vals[i])
        assert _bits(ones[i][1][0]) == _bits(XS[i])


def test_sum_kernels_make_one_call_per_block_group(monkeypatch):
    calls = []
    kernel = spaces.lp_norm_rows

    def counted(X, p):
        calls.append(len(X))
        return kernel(X, p)

    monkeypatch.setattr(spaces, "lp_norm_rows", counted)
    rng = np.random.default_rng(5)
    a, b = Space(2.0, 3), Space(3.0, 2)
    for comps, want in (((a, a), [10]), ((a, b, a), [10, 5])):
        space = SumSpace(comps, 1.5)
        X = rng.normal(size=(5, space.dim))
        calls.clear()
        N = space.profile_rows(X)
        assert calls == want
        for i, (c, (lo, hi)) in enumerate(zip(comps, space.offsets())):
            assert _bits(N[:, i]) == _bits(kernel(X[:, lo:hi], c.p))


def test_sum_face_rows_refuse_too_many_peak_points():
    # two sup-norm blocks with every coordinate a peak: 64 x 64 = 4096
    # Minkowski points stay exact, 65 x 65 do not, in any row of a call
    def flat(dim):
        space = SumSpace((Space(INF, dim), Space(INF, dim)), 1.0)
        return space, np.full(2 * dim, 0.5), np.ones(2 * dim)

    space, x, y = flat(64)
    value, _ = oracle.sum_face(y, x, space)
    assert face_sup_rows(y[None], x[None], space)[0] == value == 2.0
    space, x, y = flat(65)
    with pytest.raises(GeometryError):
        oracle.sum_face(y, x, space)
    single = x.copy()
    single[1:65] = 0.25                 # one peak in the first block
    with pytest.raises(GeometryError):
        best_state_functional_rows(np.array([y, y]), np.array([single, x]),
                                   space)
    assert face_sup_rows(y[None], single[None], space)[0] == \
        oracle.sum_face(y, single, space)[0]


def test_sum_face_rows_check_shapes():
    space = SumSpace((Space(2.0, 2), Space(1.0, 2)), 1.0)
    for y, x in ((np.ones(3), np.ones(3)), (np.ones(4), np.ones((2, 4)))):
        with pytest.raises(DimensionMismatchError):
            face_sup_rows(np.atleast_2d(y), np.atleast_2d(x), space)
    with pytest.raises(DimensionMismatchError):
        face_sup(np.ones(3), np.ones(3), space)


def _lift_operator(rng, dim, cx):
    """A norm-one Hilbert operator into a codomain of dim 1 to dim + 1,
    sometimes with a zero column."""
    field = "complex" if cx else "real"
    cod = int(rng.integers(1, dim + 2))
    M = _gauss(rng, (cod, dim), cx)
    if dim > 1 and rng.uniform() < 0.3:
        M[:, 0] = 0.0
    return Scale(1.0 / np.linalg.norm(M, 2),
                 Dense(M, Space(2.0, dim, field), Space(2.0, cod, field)))


@settings(max_examples=20, deadline=None)
@given(cases)
def test_lift_descriptor_rows_match_scalar_oracle(case):
    p, cx, dim, seed = case
    rng = np.random.default_rng(seed)
    dim = 1 + dim % 5
    T = _lift_operator(rng, dim, cx)
    for outer in (1.0, INF):
        desc = LiftNuStates(T, outer)
        X = _rows(rng, desc.space)
        XS = _rows(rng, desc.space.dual())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = desc.pair_distance_rows(X, XS)
        for i, (x, xs) in enumerate(zip(X, XS)):
            want = oracle.lift_nu_pair_distance(desc, x, xs)
            assert _bits(got[i]) == _bits(np.array(want, dtype=float))
            assert _bits(got[i]) == _bits(np.array(desc.pair_distance(x, xs)))
    inner_space = _space(p, cx, dim)
    for outer in (1.0, 1.5, INF):
        space = SumSpace((inner_space, Space(2.0, dim, inner_space.field)),
                         outer)
        for inner in _norming_sets(rng, inner_space):
            desc = LiftedNormingSet(inner, space)
            X = _rows(rng, space)
            X[1:4, dim:] *= 0.1         # some rows near the norming set
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = desc.distance_rows(X)
            for i, x in enumerate(X):
                want = oracle.lifted_norming_distance(desc, x)
                assert _value_bits(desc.distance(x)) == _value_bits(want)
                assert _value_bits(got[i]) == _value_bits(want)


def _near_pairs(rng, desc):
    """Row pairs around the descriptor's samples: the samples themselves,
    steps of several scales from them, a sample's x with another's x* (the
    options' signs disagree), and the zero pair (every option ties)."""
    space = desc.space
    pairs = desc.sample(rng, 4)
    X = np.array([sp.x for sp in pairs])
    XS = np.array([sp.xstar for sp in pairs])
    scales = rng.choice([1e-3, 0.1, 1.0], size=(8, 1))
    steps = scales * rng.normal(size=(2, 8, space.dim))
    X = np.concatenate([X, X[rng.integers(4, size=8)] + steps[0], X,
                        np.zeros((1, space.dim))])
    XS = np.concatenate([XS, XS[rng.integers(4, size=8)] + steps[1],
                         XS[::-1], np.zeros((1, space.dim))])
    return X, XS


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_gallery_pair_descriptor_rows_match_scalar_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    for desc, scalar in ((LiftedRank1NuStates(dim),
                          oracle.lifted_rank1_pair_distance),
                         (CornerNuStates(dim, 1.0), oracle.corner_pair_distance),
                         (CornerNuStates(dim, INF), oracle.corner_pair_distance)):
        X, XS = _near_pairs(rng, desc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = desc.pair_distance_rows(X, XS)
            ones = [desc.pair_distance(x, xs) for x, xs in zip(X, XS)]
        for i, (x, xs) in enumerate(zip(X, XS)):
            want = _bits(np.array(scalar(desc, x, xs), dtype=float))
            assert _bits(got[i]) == want
            assert _bits(np.array(ones[i])) == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1.0, 1.5, INF]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_sum_alignment_rows_match_scalar_oracle(outer, cx, seed):
    # unit rows with massless blocks and zero entries, Gaussian rows with
    # zeros in places, and the zero row
    space, X, Y = _sum_rows(np.random.default_rng(seed), outer, cx)
    Z = np.concatenate([X, Y, np.zeros((1, space.dim), dtype=space.dtype)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        U, P = dual_align_in(Z, space), primal_align_in(Z, space)
        N = space.norm_rows(Z)
        ones = [(dual_align_vec(z, space), primal_align_vec(z, space),
                 space.norm(z)) for z in Z]
    assert U.dtype == P.dtype == space.dtype
    for i, z in enumerate(Z):
        u = _bits(oracle.dual_align_vec(z, space))
        x = _bits(oracle.primal_align_vec(z, space))
        n = _value_bits(oracle.space_norm(z, space))
        assert _bits(U[i]) == _bits(ones[i][0]) == u
        assert _bits(P[i]) == _bits(ones[i][1]) == x
        assert _value_bits(N[i]) == _value_bits(ones[i][2]) == n


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
def test_dim_one_phase_orbit_rows_match_one_row_calls(p):
    # the phase products of a complex explicit list round alike whatever
    # the number of rows, also on dim 1 where numpy's broadcast loop does not
    rng = np.random.default_rng(int(p) if p < INF else 7)
    space = Space(p, 1, "complex")
    for _ in range(50):
        v = _gauss(rng, 1, True)
        v = v / space.norm(v)
        norming = NormingSetDescriptor("explicit_list", space=space,
                                       points=(v,), phase_orbit=True)
        states = ExplicitNuStates(space, [StatePair(v, np.conj(v), space)])
        X, XS = _gauss(rng, (4, 1), True), _gauss(rng, (4, 1), True)
        D, PD = norming.distance_rows(X), states.pair_distance_rows(X, XS)
        for i in range(4):
            assert _value_bits(D[i]) == _value_bits(norming.distance(X[i]))
            assert _bits(PD[i]) == _bits(np.array(
                states.pair_distance(X[i], XS[i])))
