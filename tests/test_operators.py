import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas_lab.errors import GeometryError
from bollobas_lab.operators import (Adjoint, Delift, Dense, Diagonal, DirectSum,
                                    Lift, RankOne, Scale, adjoint, apply,
                                    functional, identity, to_matrix)
from bollobas_lab.sequences import ConstantTail, SequenceSpec
from bollobas_lab.spaces import INF, Space, StatePair, SumSpace, pair


def test_diagonal_eval():
    s = Space(2, 2)
    D = Diagonal(SequenceSpec((1.0, 0.5)), s)
    assert np.allclose(D(np.array([0.0, 1.0])), [0.0, 0.5])


NAN, INF_ = float("nan"), float("inf")
L1, L2 = Space(1, 2), Space(2, 2)


@pytest.mark.parametrize("build", [
    lambda: Diagonal(SequenceSpec((NAN, 0.5)), L2),
    lambda: SequenceSpec((1.0, -INF_)),
    lambda: SequenceSpec((complex(1.0, NAN),)),
    lambda: SequenceSpec((1.0,), ConstantTail(NAN)),
    lambda: SequenceSpec((1.0,), ConstantTail(INF_)),
    lambda: Dense(np.array([[INF_, 0.0], [0.0, 1.0]]), L1, L1),
    lambda: Dense(np.array([[NAN, 0.0], [0.0, 1.0]]), L2, L2),
    lambda: RankOne(np.array([1.0, NAN]), np.array([1.0, 0.0]), L2, L2),
    lambda: RankOne(np.array([1.0, 0.0]), np.array([INF_, 0.0]), L2, L2),
    lambda: L2.norm([NAN, 1.0]),
    lambda: Space(1, 2, "complex").norm([complex(1.0, INF_), 0.0]),
    lambda: SumSpace((L1, L2), 2.0).norm([1.0, 0.0, NAN, 0.0]),
    lambda: StatePair(np.array([NAN, 1.0]), np.array([1.0, 0.0]),
                      L2).validate(),
    lambda: StatePair(np.array([1.0, 0.0]), np.array([1.0, NAN]),
                      Space(INF, 2)).validate(),
    lambda: apply(Dense(np.eye(2), L2, L2), np.array([NAN, 0.0])),
    lambda: apply(Lift(Dense(np.eye(2), L2, L2), 1.0),
                  np.array([0.0, 1.0, INF_, 0.0])),
], ids=["diag-nan-prefix", "inf-prefix", "complex-nan-prefix",
        "nan-constant-tail", "inf-constant-tail", "dense-inf-l1",
        "dense-nan-l2", "rank-one-nan-y", "rank-one-inf-xstar",
        "space-norm-nan", "space-norm-complex-inf", "sum-norm-nan",
        "state-pair-nan-x", "state-pair-nan-xstar", "apply-nan",
        "apply-lift-inf"])
def test_non_finite_inputs_raise_geometry_error(build):
    with pytest.raises(GeometryError):
        build()


def test_rank_one_eval():
    s = Space(1, 3)
    T = RankOne(y=np.array([0.5, 0.25, 0.25]), xstar=np.array([1.0, 0, 0]),
                dom=s, cod=s)
    assert np.allclose(T(np.array([2.0, 5.0, 7.0])), [1.0, 0.5, 0.5])


def test_first_row_averaging_eval():
    # (Tx)(1) = sum of halving weights against x, all other rows zero
    k = 6
    s = Space(INF, k)
    M = np.zeros((k, k))
    M[0] = 0.5 ** np.arange(1, k + 1)
    T = Dense(M, s, s)
    out = T(np.ones(k))
    assert out[0] == pytest.approx(1 - 2.0 ** -k, abs=0)
    assert np.all(out[1:] == 0)


def test_lift_action():
    W, Z = Space(2, 2), Space(2, 3)
    M = np.arange(6.0).reshape(3, 2)
    T = Dense(M, W, Z)
    L = Lift(T, 1.0)
    x = np.array([1.0, 2.0, 9.0, 9.0, 9.0])
    out = L(x)
    assert np.allclose(out[:2], 0.0)
    assert np.allclose(out[2:], M @ x[:2])


def test_delift_of_lift_is_identity():
    rng = np.random.default_rng(3)
    for p in (1.0, 2.0, INF):
        W, Z = Space(2, 3), Space(2, 2)
        T = Dense(rng.normal(size=(2, 3)), W, Z)
        assert np.array_equal(to_matrix(Delift(Lift(T, p))), to_matrix(T))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_adjoint_pairing(seed, complex_field):
    rng = np.random.default_rng(seed)
    field = "complex" if complex_field else "real"
    W, Z = Space(1.5, 3, field), Space(2.5, 4, field)
    M = rng.normal(size=(4, 3))
    if complex_field:
        M = M + 1j * rng.normal(size=(4, 3))
    T = Dense(M, W, Z)
    ys = rng.normal(size=4) + (1j * rng.normal(size=4) if complex_field else 0)
    x = rng.normal(size=3) + (1j * rng.normal(size=3) if complex_field else 0)
    lhs = pair(apply(adjoint(T), ys), x)
    rhs = pair(ys, apply(T, x))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_adjoint_of_diagonal_is_diagonal_matrix():
    s = Space(2, 3)
    D = Diagonal(SequenceSpec((1.0, 0.5, -0.25)), s)
    assert np.array_equal(to_matrix(adjoint(D)), to_matrix(D))


def test_double_adjoint_matches_original():
    rng = np.random.default_rng(0)
    s = Space(1.5, 4)
    T = Dense(rng.normal(size=(4, 4)), s, s)
    TT = adjoint(adjoint(T))
    x = rng.normal(size=4)
    assert np.allclose(TT(x), T(x))
    assert TT.domain == s


def test_adjoint_spaces_are_duals():
    T = Dense(np.ones((3, 2)), Space(1, 2), Space(2, 3))
    A = Adjoint(T)
    assert A.domain.p == 2.0 and A.codomain.p == INF


def test_direct_sum_blocks():
    s = Space(2, 2)
    A = Dense(np.eye(2), s, s)
    B = Dense(2 * np.eye(2), s, s)
    DS = DirectSum((A, B), 1.0)
    out = DS(np.array([1.0, 0, 0, 1.0]))
    assert np.allclose(out, [1, 0, 0, 2])
    assert isinstance(DS.domain, SumSpace)


def test_scale_node():
    s = Space(2, 2)
    T = Scale(0.5, identity(s))
    assert np.allclose(T(np.array([2.0, 0])), [1.0, 0])


def test_functional_wrapper():
    f = functional([1.0, 0.5], Space(1, 2))
    assert f.codomain.dim == 1
    assert f(np.array([1.0, 1.0]))[0] == pytest.approx(1.5)


def test_lift_shape_guards():
    from bollobas_lab.errors import GeometryError
    s = Space(2, 2)
    L = Lift(identity(s), 2.0)
    with pytest.raises(GeometryError):
        Lift(L, 2.0)                      # lifting a sum-space operator


_REAL2, _COMPLEX2 = Space(2, 2), Space(2, 2, "complex")


@pytest.mark.parametrize("build", [
    lambda: Dense(np.array([[3j, 4.0]]), _REAL2, Space(2, 1)),
    lambda: Dense(np.array([[1j, 0.0], [0.0, 1.0]]), _COMPLEX2, _REAL2),
    lambda: RankOne(np.array([1j, 0.0]), np.array([1.0, 0.0]), _REAL2,
                    _REAL2),
    lambda: RankOne(np.array([1.0, 0.0]), np.array([0.0, 2j]), _REAL2,
                    _REAL2),
    lambda: Scale(1j, Diagonal(SequenceSpec((1.0, 0.5)), _REAL2)),
], ids=["dense-real-domain", "dense-real-codomain", "rank-one-y",
        "rank-one-xstar", "scale"])
def test_complex_entry_on_real_field_rejected(build):
    # casting to the real field would silently drop the imaginary part
    with pytest.raises(GeometryError):
        build()


def test_complex_entries_with_zero_imaginary_part_accepted():
    Dense(np.array([[3 + 0j, 4.0]]), _REAL2, Space(2, 1))
    Scale(0.5 + 0j, Diagonal(SequenceSpec((1.0, 0.5)), _REAL2))
    assert Scale(1j, identity(_COMPLEX2)).scalar == 1j


def test_zero_imaginary_matrix_is_stored_real_on_real_fields():
    T = Dense(np.array([[3 + 0j, 4.0]]), _REAL2, Space(2, 1))
    assert T.matrix.dtype == np.float64
    y = apply(T, np.array([1.0, 2.0]))
    assert y.dtype == np.float64 and y.tolist() == [11.0]


def test_zero_imaginary_scalar_is_stored_real_on_real_fields():
    T = Scale(0.5 + 0j, Diagonal(SequenceSpec((1.0, 0.5)), _REAL2))
    assert isinstance(T.scalar, float) and T.scalar == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")            # no ComplexWarning
        y = apply(T, np.array([2.0, 4.0]))
    assert y.dtype == np.float64 and y.tolist() == [1.0, 1.0]
    RankOne(np.array([1.0 + 0j, 0.0]), np.array([0.0, 2.0 + 0j]), _REAL2,
            _REAL2)
