"""The stacked dense norm and radius routes against the paths they replaced.

tests/_oracles.py keeps the Boyd multistart with one boyd_ascent call per
batch of 16 (boyd_ascent_flat, its body before it took stacks), the phase
grid as one meshgrid over every phase, the whole sign cube with its bits
shifted out of the row indices, and the rotation grid with one eigvalsh per
rotation over the whole circle.  The library's stacks, chunk tables, half
cube and batched eigvalsh over half the circle must give the same value and
the same witness, bit for bit.  The phase route's ascent replaced a golden
polish, which the oracle keeps: the ascent must reach its value to 4 ulps.
The multistarts run every start of their budget, in full batches and one
batch of the remainder.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from bollobas_lab import norm_attainment
from bollobas_lab._search import boyd_ascent, random_unit_rows
from bollobas_lab.norm_attainment import (_multistart_norm, _phase_enumerate,
                                          _phase_grid, _sign_enumerate,
                                          _sum_space_norm, norming_set,
                                          operator_norm)
from bollobas_lab.numerical_radius import _complex_hilbert_nu, _multistart_nu
from bollobas_lab.operators import Dense
from bollobas_lab.spaces import INF, Space, SumSpace, lp_norm

# the package exports the function numerical_radius under the module's name
nr_mod = importlib.import_module("bollobas_lab.numerical_radius")
PQ = [(1.5, 3.0), (3.0, 1.5), (4.0, 2.5), (1.25, 1.75)]


def _bits(v):
    a = np.asarray(v)
    return (a.dtype.str, a.shape, a.tobytes())


def _matrix(rng, d, field):
    M = rng.normal(size=(d, d))
    if field == "complex":
        M = M + 1j * rng.normal(size=(d, d))
    return M


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [8, 16, 32])
def test_boyd_stack_matches_one_call_per_batch(d, field):
    # real dim 32 is where one flat GEMM over all rows can round otherwise
    rng = np.random.default_rng([d, field == "complex"])
    for p, q in PQ:
        M = _matrix(rng, d, field)
        X0 = np.stack([random_unit_rows(rng, 16, d, p, field == "complex")
                       for _ in range(4)])
        got = boyd_ascent(M, p, q, X0, iters=40)
        want = oracle.best_of(oracle.boyd_ascent_flat(M, p, q, X, iters=40)
                              for X in X0)
        assert repr(got[0]) == repr(want[0])
        assert _bits(got[1]) == _bits(want[1])
        one = boyd_ascent(M, p, q, X0[2], iters=40)
        flat = oracle.boyd_ascent_flat(M, p, q, X0[2], iters=40)
        assert repr(one[0]) == repr(flat[0])
        assert _bits(one[1]) == _bits(flat[1])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [8, 16, 32])
def test_multistart_norm_matches_batch_by_batch(d, field):
    rng = np.random.default_rng([d, 7, field == "complex"])
    M = _matrix(rng, d, field)
    for (p, q), restarts in zip(PQ, (64, 37, 16, 5)):
        dom, cod = Space(p, d, field), Space(q, d, field)
        got = _multistart_norm(M, dom, cod, restarts, 60, 3)
        want = oracle.multistart_norm(M, dom, cod, restarts, 60, 3)
        assert repr(got[0]) == repr(want[0])
        assert _bits(got[1]) == _bits(want[1])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_phase_grid_matches_the_whole_meshgrid(d):
    # dims 1 and 2 have no columns beyond the chunk table
    rng = np.random.default_rng(100 + d)
    for q in (1.0, 2.0, 3.0):
        M = _matrix(rng, d, "complex")
        dom, cod = Space(INF, d, "complex"), Space(q, d, "complex")
        got = _phase_grid(M, dom, cod)
        want = oracle.phase_grid(M, dom, cod)
        assert repr(got[0]) == repr(want[0])
        assert _bits(got[1]) == _bits(want[1])


def _check_phase_ascent(M, q):
    # from the grid's point the ascent reaches at least the golden polish,
    # to 4 ulps, at a unimodular witness whose value it reports
    d = len(M)
    dom, cod = Space(INF, d, "complex"), Space(q, d, "complex")
    val, x = _phase_enumerate(M, dom, cod)
    want = oracle.phase_enumerate(M, dom, cod)[0]
    assert val >= want - 4 * np.spacing(want)
    assert np.abs(np.abs(x) - 1.0).max() <= 1e-12
    assert lp_norm(M @ x, q) == val


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_phase_ascent_reaches_the_golden_polish(d):
    rng = np.random.default_rng(100 + d)
    for q in (1.0, 2.0, 3.0):
        _check_phase_ascent(_matrix(rng, d, "complex"), q)


# derandomized: the two values differ by rounding noise of a few ulps
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0]),
       st.integers(0, 2 ** 32 - 1))
def test_phase_ascent_differential(d, q, seed):
    _check_phase_ascent(_matrix(np.random.default_rng(seed), d, "complex"), q)


@pytest.mark.parametrize("d", [1, 14, 15, 18, 20])
def test_sign_enumeration_matches_the_bit_shift_chunks(d):
    # the library lists the kept half of the cube, the rows whose last sign
    # is -1: the first 2^(d - 1) rows of the whole cube's chunks
    rng = np.random.default_rng(200 + d)
    M = _matrix(rng, d, "real")
    dom, cod = Space(INF, d), Space(1.5, d)
    whole, kept = oracle.sign_chunks(M, dom, cod), 0
    for signs, vals in norm_attainment._sign_chunks(M, dom, cod):
        osigns, ovals = next(whole)
        n = len(signs)
        assert (signs[:, -1] == -1.0).all()
        assert _bits(signs) == _bits(osigns[:n])
        assert _bits(vals) == _bits(ovals[:n])
        kept += n
    assert kept == 1 << (d - 1)
    got = _sign_enumerate(M, dom, cod)
    want = oracle.sign_enumerate(M, dom, cod)
    assert repr(got[0]) == repr(want[0])
    assert _bits(got[1]) == _bits(want[1])


def _tied_matrix(rng, d):
    # a zero column and a duplicated column: each maximizer comes with the
    # sign flips they do not see
    M = rng.normal(size=(d + 1, d))
    if d > 1:
        M[:, d // 2] = 0.0
    if d > 2:
        M[:, 0] = M[:, d - 1]
    return M


@pytest.mark.parametrize("d", [1, 2, 14, 15, 16, 18])
def test_half_cube_matches_the_whole_cube(d):
    rng = np.random.default_rng(400 + d)
    # d + 1 rows: a codomain of dim 1 takes the functional route
    for M in (rng.normal(size=(d + 1, d)), _tied_matrix(rng, d)):
        for q in (1.0, 1.5):
            dom, cod = Space(INF, d), Space(q, d + 1)
            got = _sign_enumerate(M, dom, cod)
            want = oracle.sign_enumerate(M, dom, cod)
            assert repr(got[0]) == repr(want[0])
            assert _bits(got[1]) == _bits(want[1])
            T = Dense(M, dom, cod)
            nr = operator_norm(T)
            assert nr.method == "sign-enumeration"
            pts = norming_set(T, nr).points
            opts = oracle.enumerated_norming_points(M, dom, cod, nr.value,
                                                    1e-12)
            assert [_bits(x) for x in pts] == [_bits(x) for x in opts]


def test_kept_sign_rows_do_not_alias_the_chunk_buffer():
    # at dim 16, x and -x differ in the two high bits, so they lie in
    # different 2^14-row chunks of the one reused buffer
    M = np.random.default_rng(16).normal(size=(16, 16))
    T = Dense(M, Space(INF, 16), Space(1.0, 16))
    nr = operator_norm(T)
    assert nr.method == "sign-enumeration"
    pts = norming_set(T, nr).points
    assert len(pts) == 2
    assert _bits(pts[1]) == _bits(-pts[0])
    value = oracle.sign_enumeration_norm(M, 1.0)
    assert repr(nr.value) == repr(value)
    for x in pts:
        assert lp_norm(M @ x, 1.0) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("d", [2, 6, 24])
def test_rotation_grid_matches_one_eigvalsh_per_rotation(d):
    rng = np.random.default_rng(300 + d)
    for _ in range(3):
        M = _matrix(rng, d, "complex")
        got = _complex_hilbert_nu(M, Space(2.0, d, "complex"))
        want = oracle.complex_hilbert_nu(M)
        assert repr(got.value) == repr(want[0])
        assert _bits(got.witness.x) == _bits(want[1])


@pytest.mark.parametrize("restarts", [1, 8, 31, 37, 64])
def test_multistarts_run_every_start(monkeypatch, restarts):
    rows = {}

    def counted(name, module, nrows):
        inner = getattr(module, name)

        def call(*args, **kwargs):
            rows.setdefault(name, []).append(nrows(args))
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    def starts(X):
        return int(np.prod(X.shape[:-1]))

    counted("boyd_ascent", norm_attainment, lambda a: starts(a[3]))
    counted("power_ascent_rows", norm_attainment, lambda a: starts(a[3]))
    counted("polish_rows", nr_mod, lambda a: starts(a[0]))
    M = np.random.default_rng(5).normal(size=(3, 3))
    dom, cod = Space(3.0, 3), Space(1.5, 3)
    _multistart_norm(M, dom, cod, restarts, 5, 1)
    S = SumSpace((Space(3.0, 2), Space(1.5, 1)), 2.0)
    _sum_space_norm(M, S, S, restarts, 5, 1)
    _multistart_nu(M, dom, restarts, 5, 1)
    # the full batches of 16 are one stack, the remainder one more call;
    # the sum-space norm and the nu multistart stack all their batches
    full, rest = restarts - restarts % 16, restarts % 16
    assert rows["boyd_ascent"] == [n for n in (full, rest) if n]
    assert rows["power_ascent_rows"] == [restarts]
    assert rows["polish_rows"] == [restarts]
    with pytest.raises(ValueError):
        _multistart_norm(M, dom, cod, 0, 5, 1)
