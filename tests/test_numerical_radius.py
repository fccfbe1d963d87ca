import warnings

import numpy as np
import pytest

from bollobas_lab.errors import GeometryError, HeuristicRefusalError
from bollobas_lab.gallery import shift_matrix
from bollobas_lab.numerical_radius import (best_state_functional,
                                           corner_profile_constant,
                                           distance_to_nu_attaining,
                                           face_sup, nu_attaining_states,
                                           numerical_radius)
from bollobas_lab.norm_attainment import operator_norm
from bollobas_lab.operators import Dense, Diagonal, Lift, adjoint, identity
from bollobas_lab.sequences import SequenceSpec
from bollobas_lab.spaces import INF, Space, StatePair, SumSpace, pair

from _oracles import (l1_state_enumeration_nu, random_l1_states_nu,
                      sphere_multistart_nu_real_hilbert, theta_grid_nu_complex)


def test_shift_cosine_values():
    for n in range(2, 9):
        R = Dense(shift_matrix(n), Space(2, n), Space(2, n))
        nr = numerical_radius(R)
        assert nr.certainty == "exact"
        assert nr.value == pytest.approx(np.cos(np.pi / (n + 1)), abs=1e-12)


def test_real_hilbert_vs_multistart(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        M = rng.normal(size=(d, d))
        nr = numerical_radius(Dense(M, Space(2, d), Space(2, d)))
        oracle = sphere_multistart_nu_real_hilbert(M, seed=int(rng.integers(1e6)))
        assert nr.value == pytest.approx(oracle, abs=1e-8)
        wit = nr.witness
        assert abs(pair(wit.xstar, M @ wit.x)) == pytest.approx(nr.value,
                                                                abs=1e-10)


def test_complex_hilbert_theta_grid(rng):
    for _ in range(5):
        d = int(rng.integers(2, 5))
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = Space(2, d, "complex")
        nr = numerical_radius(Dense(M, s, s))
        assert nr.certainty == "grid_refined"
        oracle = theta_grid_nu_complex(M)
        assert nr.value == pytest.approx(oracle, abs=1e-8)
        assert nr.value >= oracle - 1e-10      # refinement only improves
        wit = nr.witness
        wit.validate()
        assert abs(pair(wit.xstar, M @ wit.x)) == pytest.approx(nr.value,
                                                                abs=1e-9)


def test_l1_exact_vs_enumeration(rng):
    for _ in range(8):
        d = int(rng.integers(2, 6))
        M = rng.normal(size=(d, d))
        s = Space(1, d)
        nr = numerical_radius(Dense(M, s, s))
        assert nr.certainty == "exact"
        assert nr.value == pytest.approx(l1_state_enumeration_nu(M), abs=1e-12)
        # mixed-support states never beat the coordinate vertices
        assert random_l1_states_nu(M, seed=3) <= nr.value + 1e-10
        nr.witness.validate()


def test_sup_norm_exact_is_transpose_of_l1(rng):
    M = rng.normal(size=(5, 5))
    a = numerical_radius(Dense(M, Space(INF, 5), Space(INF, 5)))
    b = numerical_radius(Dense(M.T, Space(1, 5), Space(1, 5)))
    assert a.value == pytest.approx(b.value, abs=1e-12)
    a.witness.validate()
    assert abs(pair(a.witness.xstar, M @ a.witness.x)) == pytest.approx(
        a.value, abs=1e-12)


def test_radius_below_norm(rng):
    for p in (1.0, 2.0, INF):
        d = 5
        M = rng.normal(size=(d, d))
        T = Dense(M, Space(p, d), Space(p, d))
        assert numerical_radius(T).value <= operator_norm(T).value + 1e-9


def test_diagonal_radius_equals_sup():
    D = Diagonal(SequenceSpec((1.0, 0.5)), Space(2, 2))
    nr = numerical_radius(D)
    assert nr.value == 1.0 and nr.certainty == "exact"
    assert np.allclose(nr.witness.x, [1, 0])
    assert np.allclose(nr.witness.xstar, [1, 0])


def test_adjoint_radius_invariance(rng):
    for p in (1.5, 2.0, 3.0):
        M = rng.normal(size=(4, 4))
        s = Space(p, 4)
        a = numerical_radius(Dense(M, s, s), restarts=96, seed=1)
        b = numerical_radius(adjoint(Dense(M, s, s)), restarts=96, seed=1)
        assert a.value == pytest.approx(b.value, rel=1e-6)


def test_non_square_rejected():
    T = Dense(np.ones((2, 3)), Space(2, 3), Space(2, 2))
    with pytest.raises(GeometryError):
        numerical_radius(T)


def test_lift_profile_constant():
    assert corner_profile_constant(2.0) == pytest.approx(0.5)
    assert corner_profile_constant(1.5) == pytest.approx(
        corner_profile_constant(3.0))
    H = Space(2, 3)
    for p in (1.0, 2.0, INF):
        nr = numerical_radius(Lift(identity(H), p))
        want = 1.0 if p in (1.0, INF) else 0.5
        assert nr.value == pytest.approx(want, abs=1e-12)


def test_diagonal_attaining_states_and_distance():
    D = Diagonal(SequenceSpec((1.0, -1.0, 0.5)), Space(1, 3))
    desc = nu_attaining_states(D)
    groups = desc.describe()["groups"]
    assert sorted(groups.values()) == [[0], [1]]
    sp = StatePair(np.array([0.0, 0, 1.0]), np.array([0.0, 0, 1.0]),
                   Space(1, 3))
    dx, dxs = distance_to_nu_attaining(sp, D, desc)
    assert dx == pytest.approx(2.0)
    assert dxs == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    for s in desc.sample(rng, 8):
        s.validate()
        assert abs(pair(s.xstar, D(s.x))) == pytest.approx(1.0, abs=1e-12)
        d = desc.pair_distance(s.x, s.xstar)
        assert max(d) <= 1e-9


def test_identity_states_everywhere(rng):
    s = Space(2, 4)
    I = identity(s)
    desc = nu_attaining_states(I)
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    dx, dxs = desc.pair_distance(x, x)
    assert max(dx, dxs) <= 1e-12


def test_hilbert_states_sign_pair():
    M = np.diag([1.0, -1.0, 0.3])
    desc = nu_attaining_states(Dense(M, Space(2, 3), Space(2, 3)))
    # both the +1 and -1 eigenspaces attain
    d_plus = desc.pair_distance(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
    d_minus = desc.pair_distance(np.array([0.0, 1, 0]), np.array([0.0, 1, 0]))
    assert max(d_plus) <= 1e-12 and max(d_minus) <= 1e-12


def test_states_refused_for_heuristic(rng):
    M = rng.normal(size=(4, 4))
    T = Dense(M, Space(1.7, 4), Space(1.7, 4))
    with pytest.raises(HeuristicRefusalError):
        nu_attaining_states(T)


def test_face_sup_two_block():
    s = SumSpace((Space(2, 2), Space(2, 2)), 1.0)
    # both blocks massed: the support functionals are the block directions
    x = s.join([np.array([0.6, 0.0]), np.array([0.0, 0.4])])
    y = s.join([np.array([1.0, 1.0]), np.array([2.0, 0.0])])
    assert face_sup(y, x, s) == pytest.approx(1.0, abs=1e-12)
    # massless second block contributes its dual norm as free radius
    x2 = s.join([np.array([1.0, 0.0]), np.zeros(2)])
    assert face_sup(y, x2, s) == pytest.approx(1.0 + 2.0, abs=1e-12)
    # sup-norm outer: only peak blocks count
    s_inf = SumSpace((Space(2, 2), Space(2, 2)), INF)
    x3 = s_inf.join([np.array([1.0, 0.0]), np.array([0.0, 0.3])])
    assert face_sup(y, x3, s_inf) == pytest.approx(1.0, abs=1e-12)


def test_best_state_functional_real_l1_stays_real():
    # y has mass off supp(x), where the functional takes the phase psi
    space = Space(1.0, 4)
    x = np.array([0.5, 0.5, 0.0, 0.0])
    y = np.array([1.0, 0.3, -0.2, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, xs = best_state_functional(y, x, space)
    assert xs.dtype == np.float64
    assert val == pytest.approx(face_sup(y, x, space), abs=1e-12)
    assert abs(pair(xs, y)) == pytest.approx(val, abs=1e-12)
    StatePair(x, xs, space).validate()
