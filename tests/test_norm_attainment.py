import numpy as np
import pytest

from bollobas_lab.errors import HeuristicRefusalError
from bollobas_lab.norm_attainment import (distance_to_norming_set,
                                          functional_norming_set, norming_set,
                                          operator_norm, support_distance,
                                          subspace_sphere_distance)
from bollobas_lab.operators import (Dense, Diagonal, Lift, RankOne, adjoint,
                                    functional)
from bollobas_lab.sequences import SequenceSpec
from bollobas_lab.spaces import INF, Space

from _oracles import l1_vertex_norm, sign_enumeration_norm, sphere_multistart_norm


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
