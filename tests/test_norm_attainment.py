import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas_lab.errors import HeuristicRefusalError
from bollobas_lab.norm_attainment import (LiftedNormingSet,
                                          NormingSetDescriptor,
                                          block_product_rows,
                                          distance_to_norming_set,
                                          functional_norming_set, norming_set,
                                          operator_norm, support_distance,
                                          subspace_sphere_distance)
from bollobas_lab.operators import (Dense, Diagonal, Lift, RankOne, adjoint,
                                    functional)
from bollobas_lab.sequences import SequenceSpec
from bollobas_lab.spaces import INF, Space, SumSpace

from _oracles import (l1_vertex_norm, mp_norm, sign_enumeration_norm,
                      sphere_multistart_norm)

EPS = np.finfo(float).eps


def test_diagonal_norm_exact():
    # ratios-to-one truncation has norm one, from the leading entry
    k = 8
    coeffs = [1.0] + [n / (n + 1) for n in range(1, k)]
    D = Diagonal(SequenceSpec(tuple(coeffs)), Space(1, k))
    nr = operator_norm(D)
    assert nr.value == 1.0 and nr.certainty == "exact"
    assert np.allclose(nr.witness, np.eye(k)[0])


def test_rank_one_norm_with_witness():
    k = 8
    w = 0.5 ** np.arange(1, k + 1)
    what = w / w.sum()
    s = Space(1, k)
    S = RankOne(y=what, xstar=np.eye(k)[0], dom=s, cod=s)
    nr = operator_norm(S)
    assert nr.value == pytest.approx(1.0, abs=0)
    assert s.norm(S(nr.witness)) == pytest.approx(1.0, abs=1e-15)


def test_l1_domain_column_norm(rng):
    M = rng.normal(size=(4, 5))
    T = Dense(M, Space(1, 5), Space(2, 4))
    nr = operator_norm(T)
    assert nr.certainty == "exact"
    assert nr.value == pytest.approx(l1_vertex_norm(M, 2.0), abs=0)


def test_sup_codomain_row_norm(rng):
    M = rng.normal(size=(4, 4))
    T = Dense(M, Space(1.5, 4), Space(INF, 4))
    nr = operator_norm(T)
    q = 3.0
    assert nr.value == pytest.approx(
        max(np.sum(np.abs(M[i]) ** q) ** (1 / q) for i in range(4)), abs=1e-12)
    assert Space(INF, 4).norm(T(nr.witness)) == pytest.approx(nr.value, abs=1e-12)


def test_hilbert_svd(rng):
    M = rng.normal(size=(5, 5))
    T = Dense(M, Space(2, 5), Space(2, 5))
    nr = operator_norm(T)
    assert nr.value == pytest.approx(np.linalg.svd(M)[1][0], abs=1e-12)
    assert nr.certainty == "exact"


def test_sign_enumeration_matches_oracle(rng):
    for _ in range(6):
        M = rng.normal(size=(4, 4))
        enum = operator_norm(Dense(M, Space(INF, 4), Space(2, 4)))
        assert enum.certainty == "enumerated"
        oracle = sign_enumeration_norm(M, 2.0)
        assert enum.value == pytest.approx(oracle, abs=0)
        # smooth-sphere multistart can only certify from below here
        ms = sphere_multistart_norm(M, INF, 2.0, n_starts=128, seed=5)
        assert ms <= enum.value + 1e-9


def test_sign_enumeration_scales_its_codomain_norms():
    # unscaled, |y|^3 overflows and the enumerated value is inf
    M = np.array([[1e110, 2e110], [3e110, -1e110]])
    r = operator_norm(Dense(M, Space(INF, 2), Space(3, 2)))
    assert r.certainty == "enumerated" and np.isfinite(r.value)
    assert r.value == Space(3, 2).norm(M @ r.witness)


def test_heuristic_label_and_lower_bound(rng):
    M = rng.normal(size=(5, 5))
    T = Dense(M, Space(2.5, 5), Space(1.7, 5))
    nr = operator_norm(T)
    assert nr.certainty == "heuristic"
    oracle = sphere_multistart_norm(M, 2.5, 1.7, n_starts=256, seed=7)
    assert nr.value == pytest.approx(oracle, rel=1e-7)


def test_adjoint_norm_invariance(rng):
    for p, q in [(1.5, 2.0), (2.0, 3.0), (1.0, 2.0)]:
        M = rng.normal(size=(4, 4))
        T = Dense(M, Space(p, 4), Space(q, 4))
        a = operator_norm(T, restarts=96)
        b = operator_norm(adjoint(T), restarts=96)
        assert a.value == pytest.approx(b.value, abs=1e-9)


def test_lift_preserves_norm(rng):
    M = rng.normal(size=(3, 3))
    T = Dense(M, Space(2, 3), Space(2, 3))
    for p in (1.0, 2.0, INF):
        L = Lift(T, p)
        nl = operator_norm(L)
        assert nl.value == pytest.approx(operator_norm(T).value, abs=1e-12)
        assert L.sum_space.norm(L(nl.witness)) == pytest.approx(nl.value,
                                                                abs=1e-9)


def test_norming_set_diagonal_support():
    D = Diagonal(SequenceSpec((1.0, 0.5, 0.5)), Space(2, 3))
    ns = norming_set(D)
    assert ns.kind == "support_constrained" and ns.J == (0,)
    e2 = np.array([0.0, 1.0, 0.0])
    assert distance_to_norming_set(e2, D, ns) == pytest.approx(np.sqrt(2))
    assert ns.distance(np.array([1.0, 0, 0])) == 0.0


def test_norming_set_identity_sup_norm():
    D = Diagonal(SequenceSpec((1.0, 1.0, 1.0)), Space(INF, 3))
    ns = norming_set(D)
    assert ns.kind == "coordinate_unimodular"
    assert ns.J == (0, 1, 2)
    x = np.array([0.3, -0.2, 1.0])
    assert ns.distance(x) == 0.0


def test_sup_norm_basis_vector_off_peak_distance():
    # a basis vector away from the peak set sits at distance exactly one
    D = Diagonal(SequenceSpec((1.0, 0.5, 0.5)), Space(INF, 3))
    ns = norming_set(D)
    assert ns.J == (0,)
    e3 = np.array([0.0, 0.0, 1.0])
    assert ns.distance(e3) == pytest.approx(1.0)


def test_norming_set_refuses_heuristic(rng):
    M = rng.normal(size=(5, 5))
    T = Dense(M, Space(2.5, 5), Space(1.7, 5))
    with pytest.raises(HeuristicRefusalError):
        norming_set(T)


def test_support_distance_exactness(rng):
    # the nearest supported unit vector is the radial rescaling, all p
    for p in (1.0, 1.5, 2.0, 3.0):
        s = Space(p, 6)
        J = (0, 2, 4)
        for _ in range(40):
            x = rng.normal(size=6)
            x /= s.norm(x)
            d = support_distance(x, J, s)
            best = np.inf
            for _ in range(300):
                y = np.zeros(6)
                y[list(J)] = rng.normal(size=3)
                y /= s.norm(y)
                best = min(best, s.norm(x - y))
            assert d <= best + 1e-12
            xj = np.where(np.isin(np.arange(6), J), x, 0.0)
            if s.norm(xj) > 0:
                assert s.norm(x - xj / s.norm(xj)) == pytest.approx(d, abs=1e-12)


def test_subspace_sphere_distance(rng):
    B = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    x = rng.normal(size=5)
    x /= np.linalg.norm(x)
    d = subspace_sphere_distance(x, B)
    best = np.inf
    for _ in range(4000):
        c = rng.normal(size=2)
        v = B @ c
        v /= np.linalg.norm(v)
        best = min(best, np.linalg.norm(x - v))
    assert d <= best + 1e-12
    assert d == pytest.approx(best, abs=1e-3)


def test_functional_norming_sets():
    f = np.array([1.0, 0.5, 2 / 3, 0.75])
    ns = functional_norming_set(f, Space(1, 4))
    assert ns.kind == "explicit_list" and ns.phase_orbit
    e4 = np.array([0.0, 0, 0, 1.0])
    assert ns.distance(e4) == pytest.approx(2.0)
    # sup-norm domain: aligned pattern with free coordinates off support
    g = np.array([0.5, -0.5, 0.0])
    ns2 = functional_norming_set(g, Space(INF, 3))
    member = np.array([1.0, -1.0, 0.123])
    assert ns2.distance(member) == pytest.approx(0.0, abs=1e-12)


def test_distance_zero_iff_member(rng):
    D = Diagonal(SequenceSpec((1.0, 1.0, 0.25, 0.25)), Space(2, 4))
    ns = norming_set(D)
    for v in ns.sample(rng, 10):
        assert ns.distance(v) <= 1e-12
        assert Space(2, 4).norm(D(v)) == pytest.approx(1.0, abs=1e-12)
    off = np.array([0.0, 0.0, 1.0, 0.0])
    assert ns.distance(off) > 0.9


def test_empty_norming_set_sentinel():
    from bollobas_lab.norm_attainment import NormingSetDescriptor
    empty = NormingSetDescriptor("empty")
    assert empty.distance(np.ones(3)) == np.inf


def test_direct_sum_norm_is_block_max():
    from bollobas_lab.operators import DirectSum
    s = Space(2, 2)
    A = Dense(0.5 * np.eye(2), s, s)
    B = Dense(np.diag([2.0, 0.1]), s, s)
    DS = DirectSum((A, B), 1.0)
    nr = operator_norm(DS)
    assert nr.value == pytest.approx(2.0) and nr.is_certified()
    assert DS.codomain.norm(DS(nr.witness)) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# every distance combines its parts by the lp kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2.0, 3.0])
def test_support_distance_keeps_a_tiny_off_support_mass(p):
    for mass in (1e-110, 1e-170):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = support_distance(np.array([1.0, mass, 0.0]), (0,),
                                   Space(p, 3))
        assert got == pytest.approx(mass, rel=4 * EPS, abs=0), mass


@pytest.mark.parametrize("x,want", [([1.0, 1e-170, 0.0], 1e-170),
                                    ([1e160, 1e160, 0.0], 2 ** 0.5 * 1e160)],
                         ids=["1e-170", "1e160"])
def test_sphere_distance_neither_underflows_nor_overflows(x, want):
    e1 = np.eye(3)[:, :1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = subspace_sphere_distance(np.array(x), e1)
    assert got == pytest.approx(want, rel=4 * EPS, abs=0)


def test_lifted_distance_keeps_a_tiny_block():
    inner = NormingSetDescriptor("support_constrained", space=Space(2.0, 2),
                                 J=(0,))
    desc = LiftedNormingSet(inner, SumSpace((Space(2.0, 2),) * 2, 1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert desc.distance(np.array([1.0, 0.0, 1e-250, 0.0])) == 1e-250


@pytest.mark.parametrize("outer", [1.5, 2.0, 3.0])
def test_block_product_sets_infinite_rows_aside(outer):
    # block 0 is at distance inf from an empty set on the rows where its
    # entry is positive, and at 0 elsewhere
    space = SumSpace((Space(2.0, 1), Space(2.0, 2)), outer)
    parts = [lambda B: np.where(B[:, 0] > 0, np.inf, 0.0),
             space.components[1].norm_rows]
    X = np.array([[1.0, 0.5, 0.0], [0.0, 1e-250, 0.0], [1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block_product_rows(X, space, parts)
    assert got.tolist() == [np.inf, 1e-250, np.inf]


def _kernel_tol(n, value):
    """What test_norm_kernel_calls_agree_and_are_accurate grants one kernel
    call on rows of n entries whose norm is value."""
    return (n + 3) * EPS * value + 5e-324


def _wide_vector(draw, n, cx):
    entries = st.floats(-1e300, 1e300)
    x = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    if cx:
        x = x + 1j * np.array(draw(st.lists(entries, min_size=n,
                                            max_size=n)))
    return x


@st.composite
def _support_case(draw):
    n = draw(st.integers(1, 6))
    x = _wide_vector(draw, n, draw(st.booleans()))
    J = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return x, J, draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]))


def _mp_lp(parts, p):
    """The lp norm of nonnegative mpmath numbers, at the working precision."""
    if p == INF:
        return max(parts)
    p = mpmath.mpf(p)
    return mpmath.fsum(t ** p for t in parts) ** (1 / p)


@settings(max_examples=200, deadline=None)
@given(_support_case())
def test_support_and_sphere_distances_are_accurate(case):
    # each part is one kernel call, and the distance, 1-Lipschitz in each
    # part, is one more; on a coordinate subspace P x and x - P x are exact
    x, J, p = case
    n = len(x)
    mask = np.isin(np.arange(n), J)
    field = "complex" if np.iscomplexobj(x) else "real"
    cases = ((support_distance(x, J, Space(p, n, field)), p),
             (subspace_sphere_distance(x, np.eye(n)[:, list(J)]), 2.0))
    with mpmath.workdps(50):
        for got, q in cases:
            a, b = mp_norm(x[mask], q), mp_norm(x[~mask], q)
            want = _mp_lp([abs(1 - a), b], q)
            tol = _kernel_tol(n, a) + EPS * abs(1 - a) + _kernel_tol(n, b) \
                + _kernel_tol(2, want)
            assert abs(mpmath.mpf(got) - want) <= tol, q


EXPONENTS = [1.0, 1.5, 2.0, 3.0, INF]


@st.composite
def _sum_case(draw):
    cx = draw(st.booleans())
    field = "complex" if cx else "real"
    comps = tuple(Space(draw(st.sampled_from(EXPONENTS)),
                        draw(st.integers(1, 4)), field)
                  for _ in range(draw(st.integers(1, 4))))
    space = SumSpace(comps, draw(st.sampled_from(EXPONENTS)))
    return space, _wide_vector(draw, space.dim, cx)


@settings(max_examples=200, deadline=None)
@given(_sum_case())
def test_block_product_distance_is_accurate(case):
    # the distance to the zero point of every block: each block part is one
    # kernel call, and the outer norm, 1-Lipschitz in each part, one more
    space, x = case
    parts = [c.norm_rows for c in space.components]
    got = block_product_rows(x[None, :], space, parts)[0]
    with mpmath.workdps(50):
        norms = [mp_norm(b, c.p) for b, c in zip(space.split(x),
                                                 space.components)]
        want = _mp_lp(norms, space.outer_p)
        tol = sum(_kernel_tol(c.dim, b)
                  for c, b in zip(space.components, norms)) \
            + _kernel_tol(len(norms), want)
        assert abs(mpmath.mpf(got) - want) <= tol
