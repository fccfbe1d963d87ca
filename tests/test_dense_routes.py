"""The dense norm and radius routes against the paths they replaced.

tests/_oracles.py keeps the norm multistart with each start run alone
through the scalar generic_power_ascent, power_ascent_rows as it ran before
it kept each row's image, the phase grid as one meshgrid over every phase,
the whole sign cube with its bits shifted out of the row indices, and the
rotation grid with one eigvalsh per rotation over the whole circle.  The
library's row calls, kept images, chunk tables, half cube and batched
eigvalsh over half the circle must give the same value and the same
witness, bit for bit.  Two replacements move values by their stops, so the
oracles keep what they replaced and the library must reach its value to 4
ulps: the norm multistart's per-row ascent replaced the Boyd ascent, whose
batch stopped as a whole (boyd_multistart_norm), and the phase route's
ascent replaced a golden polish.  The multistarts run every start of their
budget, in full batches and one batch of the remainder.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from bollobas_lab import norm_attainment
from bollobas_lab._search import boyd_ascent, power_ascent_rows
from bollobas_lab.norm_attainment import (_multistart_norm, _phase_enumerate,
                                          _phase_grid, _sign_enumerate,
                                          norming_set, operator_norm)
from bollobas_lab.numerical_radius import _complex_hilbert_nu, _multistart_nu
from bollobas_lab.operators import Dense
from bollobas_lab.spaces import (INF, Space, SumSpace, lp_norm, random_unit,
                                 random_unit_rows)

# the package exports the function numerical_radius under the module's name
nr_mod = importlib.import_module("bollobas_lab.numerical_radius")
PQ = [(1.5, 3.0), (3.0, 1.5), (4.0, 2.5), (1.25, 1.75)]
PQS = [1.25, 1.5, 1.75, 2.5, 3.0, 4.0]


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
def test_boyd_ascent_matches_one_row_call_per_start(d, field):
    # boyd_ascent is the one-batch call of power_ascent_rows on flat spaces:
    # the first best of its starts, each ascended alone
    rng = np.random.default_rng([d, field == "complex"])
    for p, q in PQ:
        M = _matrix(rng, d, field)
        dom, cod = Space(p, d, field), Space(q, d, field)
        X0 = random_unit_rows(dom, rng, 16)
        got = boyd_ascent(M, p, q, X0, iters=40)
        want = oracle.best_of(oracle.generic_power_ascent(M, dom, cod, x,
                                                          iters=40)
                              for x in X0)
        assert repr(got[0]) == repr(want[0])
        assert _bits(got[1]) == _bits(want[1])


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


# derandomized: the two engines stop differently, so their values differ
# by the last gains each takes, down to rounding noise of a few ulps
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 32), st.sampled_from(["real", "complex"]),
       st.sampled_from(PQS), st.sampled_from(PQS),
       st.sampled_from([1, 5, 16, 37, 64]), st.sampled_from([5, 40, 400]),
       st.integers(0, 2 ** 32 - 1))
def test_multistart_norm_reaches_the_boyd_multistart(d, field, p, q,
                                                     restarts, iters, seed):
    M = _matrix(np.random.default_rng(seed), d, field)
    dom, cod = Space(p, d, field), Space(q, d, field)
    val, x = _multistart_norm(M, dom, cod, restarts, iters, seed % 97)
    want = oracle.boyd_multistart_norm(M, dom, cod, restarts, iters,
                                       seed % 97)[0]
    assert val >= want - 4 * np.spacing(want)
    assert abs(val - lp_norm(M @ x, q) / lp_norm(x, p)) <= 2e-15 * val


@pytest.mark.parametrize("space", [
    Space(3.0, 6), Space(1.5, 5, "complex"), Space(INF, 4), Space(1.0, 4),
    SumSpace((Space(3.0, 2), Space(1.5, 3)), 2.0),
    SumSpace((Space(1.0, 2, "complex"), Space(INF, 2, "complex")), 1.0)],
    ids=["l3", "l1.5-complex", "sup", "l1", "sum-2", "sum-1-complex"])
def test_kept_image_matches_the_recomputed_ascent(space):
    # iters 2 stops most rows by their budget, 300 by their own gains, and
    # the zero matrix stops every row at its first step.  Real starts and a
    # real matrix on a complex sum turn X complex at the first step.
    rng = np.random.default_rng([space.dim, space.is_complex])
    M = _matrix(rng, space.dim, "complex" if space.is_complex else "real")
    X0 = np.array([random_unit(space, rng) for _ in range(12)])
    X0[1] = 0.0                     # a zero-norm row
    cases = [(M, X0, 2), (M, X0, 300), (np.zeros_like(M), X0, 40)]
    if space.is_complex:
        cases.append((M.real.copy(), X0.real.copy(), 300))
    for A, X, iters in cases:
        got = power_ascent_rows(A, space, space, X, iters)
        want = oracle.power_ascent_rows(A, space, space, X, iters)
        assert _bits(got[0]) == _bits(want[0])
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

    counted("power_ascent_rows", norm_attainment, lambda a: len(a[3]))
    counted("polish_rows", nr_mod, lambda a: len(a[0]))
    M = np.random.default_rng(5).normal(size=(3, 3))
    dom, cod = Space(3.0, 3), Space(1.5, 3)
    _multistart_norm(M, dom, cod, restarts, 5, 1)
    S = SumSpace((Space(3.0, 2), Space(1.5, 1)), 2.0)
    _multistart_norm(M, S, S, restarts, 5, 1)
    _multistart_nu(M, dom, restarts, 5, 1)
    # every multistart stacks all its batches as the rows of one call
    assert rows["power_ascent_rows"] == [restarts, restarts]
    assert rows["polish_rows"] == [restarts]
    with pytest.raises(ValueError):
        _multistart_norm(M, dom, cod, 0, 5, 1)
