import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas_lab import membership, spaces
from bollobas_lab._search import row_norms
from bollobas_lab.errors import GeometryError
from bollobas_lab.spaces import (INF, Space, SumSpace, duality_map,
                                 largest_feasible, lp_norm, lp_norm_rows,
                                 modulus_convexity, pair, random_unit,
                                 random_unit_rows, state_pair,
                                 support_states, unit_phase)

import _oracles as oracle
from _oracles import (duality_map_rows_powered, largest_feasible_halvings,
                      modulus_convexity_grid, modulus_convexity_slsqp,
                      mp_norm, unit_phase_divided)


def test_norm_basics():
    assert lp_norm([1, 0, 0], 1) == 1.0
    assert lp_norm([1, 1], INF) == 1.0
    assert lp_norm([3, 4], 2) == 5.0


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -(2.0 ** -1023), 1e-300,
         -1.5, 1e308, -np.inf, np.inf, np.nan, -np.nan]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(EDGES) | st.floats(), max_size=12),
       st.integers(1, 3), st.booleans())
def test_unit_phase_matches_the_division_bit_for_bit(entries, cols, cx):
    # real rows take the sign, complex ones the division; both must give
    # the old quotient's bits, ±0 -> +0, NaN -> +0 and ±inf -> inf/inf
    # included, on 1-d and 2-d arrays
    z = np.array(entries + [0.0] * (-len(entries) % cols), dtype=float)
    if cx:
        w = np.empty(len(z), dtype=complex)
        w.real, w.imag = z, z[::-1]
        z = w
    for a in (z, z.reshape(-1, cols)):
        with np.errstate(invalid="ignore"):
            got, want = unit_phase(a), unit_phase_divided(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_p2_norm_neither_underflows_nor_overflows():
    assert Space(2, 1).norm([1e-170]) == 1e-170
    assert Space(2, 1).norm([1e155]) == 1e155


@st.composite
def _norm_rows_case(draw):
    """(X (R, n), p): real, complex or integer rows, R and n down to 0,
    entries from subnormal to 1e300."""
    kind = draw(st.sampled_from(["real", "complex", "int"]))
    R, n = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    if kind == "int":
        entries = st.integers(-10 ** 9, 10 ** 9)
    else:
        entries = st.floats(-1e300, 1e300)
    X = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=R, max_size=R)),
                 dtype=np.int64 if kind == "int" else float).reshape(R, n)
    if kind == "complex":
        X = X + 1j * np.array(draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=R,
            max_size=R)), dtype=float).reshape(R, n)
    return X, draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]))


@settings(max_examples=300, deadline=None)
@given(_norm_rows_case())
def test_norm_kernel_calls_agree_and_are_accurate(case):
    X, p = case
    rows = lp_norm_rows(X, p)
    assert rows.shape == (len(X),) and rows.dtype == np.float64
    assert np.array_equal(row_norms(X, p), rows)
    eps = np.finfo(float).eps
    for x, got in zip(X, rows):
        assert lp_norm(x, p) == got
        # 1 ulp is out of reach: np.abs of one complex entry may miss by
        # 1.5 ulp, and a sum of n terms by (n - 1) / 2 ulp; the last term
        # is the spacing of the subnormal results
        want = mp_norm(x, p)
        tol = (len(x) + 3) * eps * want + 5e-324
        assert abs(mpmath.mpf(got) - want) <= tol


def test_pairing_basics():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert pair(e1, e1) == 1.0
    assert pair(e1, e2) == 0.0
    w = 0.5 ** np.arange(1, 11)
    assert pair(w, np.ones(10)) == pytest.approx(1 - 2.0 ** -10, abs=0)


def test_pair_dimension_mismatch():
    from bollobas_lab.errors import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        pair(np.ones(3), np.ones(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]))
def test_hoelder_consistency(dim, seed, p):
    rng = np.random.default_rng(seed)
    s = Space(p, dim)
    x = rng.normal(size=dim)
    xs = rng.normal(size=dim)
    assert abs(pair(xs, x)) <= s.dual().norm(xs) * s.norm(x) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000),
       st.sampled_from([1.3, 1.5, 2.0, 2.7, 4.0]),
       st.booleans())
def test_duality_map_correctness(dim, seed, p, complex_field):
    rng = np.random.default_rng(seed)
    s = Space(p, dim, "complex" if complex_field else "real")
    x = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_field else 0)
    x = x / s.norm(x)
    xs = duality_map(x, s)
    assert pair(xs, x) == pytest.approx(1.0, abs=1e-10)
    assert s.dual().norm(xs) == pytest.approx(1.0, abs=1e-10)


def test_duality_map_spec_example():
    p = 2.5
    s = Space(p, 2)
    x = np.array([1.0, 1.0]) / 2 ** (1 / p)
    xs = duality_map(x, s)
    q = p / (p - 1)
    assert np.allclose(xs, np.array([1.0, 1.0]) / 2 ** (1 / q))


def test_sum_duality_map_subnormal_block():
    s = SumSpace((Space(2, 1, "complex"),) * 2, 2.0)
    x = np.array([1, 1e-310j])
    xs = duality_map(x, s)
    assert xs.tolist() == [1, -1e-310j]
    state_pair(x, s, xs)


def test_sum_duality_map_matches_block_quotient(rng):
    # on blocks of normal norm, unit_rows divides as b / a did
    for comps, outer in [((Space(1.5, 3), Space(3.0, 2)), 2.5),
                         ((Space(2, 2, "complex"), Space(1.7, 3, "complex")),
                          1.5)]:
        s = SumSpace(comps, outer)
        for _ in range(50):
            x = random_unit(s, rng)
            blocks = s.split(x)
            profile = np.array([c.norm(b) for c, b in zip(comps, blocks)])
            old = [w * duality_map(b / a, c) for c, b, a, w in
                   zip(comps, blocks, profile, profile ** (outer - 1.0))]
            assert np.array_equal(duality_map(x, s), s.join(old))


def test_support_states_hilbert_unique():
    s = Space(2, 3)
    x = np.array([1.0, 0.0, 0.0])
    desc = support_states(x, s)
    assert desc.kind == "unique"
    assert np.allclose(desc.sample(np.random.default_rng(0))[0], x)


def test_support_states_l1_box():
    s = Space(1, 4)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    desc = support_states(x, s)
    assert desc.kind == "l1_box"
    rng = np.random.default_rng(0)
    for xs in desc.sample(rng, 12):
        assert xs[0] == 1.0
        assert np.abs(xs[1:]).max() <= 1.0
        state_pair(x, s, xs)            # validates Pi membership


def test_support_states_linf_simplex():
    s = Space(INF, 3)
    x = np.array([1.0, -1.0, 0.3])
    desc = support_states(x, s)
    assert desc.kind == "linf_simplex"
    rng = np.random.default_rng(1)
    for xs in desc.sample(rng, 12):
        state_pair(x, s, xs)


def test_support_states_sampled_members_are_states(rng):
    for p in (1.0, 1.7, 2.0, INF):
        s = Space(p, 5)
        x = rng.normal(size=5)
        x = x / s.norm(x)
        desc = support_states(x, s)
        for xs in desc.sample(rng, 6):
            state_pair(x, s, xs)


def test_modulus_convexity_hilbert_closed_form():
    s = Space(2, 2)
    assert modulus_convexity(s, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert modulus_convexity(s, 1.0) == pytest.approx(1 - np.sqrt(3) / 2,
                                                      abs=1e-12)


@pytest.mark.parametrize("p", [4.0, 3.0])
def test_modulus_convexity_matches_two_dim_oracle(p):
    for eps in (0.5, 1.0, 1.5):
        ours = modulus_convexity(Space(p, 2), eps)
        hanner = 1 - (1 - (eps / 2) ** p) ** (1 / p)   # exact for p >= 2
        assert ours == pytest.approx(hanner, abs=1e-8)


def test_modulus_convexity_small_p_against_grid():
    val = modulus_convexity(Space(1.5, 2), 1.0)
    grid = modulus_convexity_grid(1.5, 1.0, n=1500)
    assert val <= grid + 1e-6
    assert val == pytest.approx(grid, abs=5e-4)


def test_modulus_convexity_monotone_and_positive():
    s = Space(1.5, 2)
    prev = 0.0
    for eps in (0.2, 0.6, 1.0, 1.6):
        d = modulus_convexity(s, eps)
        assert d > 0
        assert d >= prev - 1e-12
        prev = d


def test_modulus_convexity_matches_slsqp_oracle():
    for p in (3.0, 4.0):
        for eps in (0.5, 1.0):
            assert modulus_convexity(Space(p, 2), eps) == pytest.approx(
                modulus_convexity_slsqp(p, eps), abs=1e-9)


def _reference_modulus(p, eps):
    """delta_p(eps) to 50 digits: Clarkson's form for p >= 2, and for
    1 < p < 2 the root of Hanner's equation by 170 halvings."""
    with mpmath.workdps(50):
        p, a = mpmath.mpf(p), mpmath.mpf(eps) / 2
        if p >= 2:
            return -mpmath.expm1(mpmath.log1p(-a ** p) / p)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(170):
            mid = (lo + hi) / 2
            if (1 - mid + a) ** p + abs(1 - mid - a) ** p >= 2:
                lo = mid
            else:
                hi = mid
        return lo


@pytest.mark.parametrize("p", [1.01, 1.1, 1.25, 1.5, 1.75, 1.99, 2.01, 2.5,
                               3.0, 4.0, 6.0, 10.0])
def test_modulus_convexity_against_mpmath(p):
    s = Space(p, 3)
    assert modulus_convexity(s, 2.0) == 1.0
    wide = list(np.linspace(0.01, 2.0, 25)[:-1]) + [1.9999, 2 - 1e-9]
    for eps, rel in [(e, 1e-11) for e in wide] + \
            [(e, 1e-7) for e in np.geomspace(1e-5, 0.0099, 6)]:
        want = _reference_modulus(p, eps)
        got = modulus_convexity(s, float(eps))
        assert abs(mpmath.mpf(got) - want) <= rel * want, (eps, got)


# the grid and SLSQP route gave 0.99979 at p = 4, eps = 2, a 24-fold
# overestimate at p = 1.1, eps = 1e-5, and 0 at p = 1.9, eps = 1e-8
@pytest.mark.parametrize("p, eps, want, rel", [
    (4.0, 2.0, 1.0, 0.0),
    (1.1, 1e-5, 1.25e-12, 1e-7),
    (1.9, 1e-8, 1.125e-17, 1e-7),
    (4.0, 1e-4, (5e-5) ** 4 / 4, 1e-12),
], ids=["p4-eps2", "p1.1-eps1e-5", "p1.9-eps1e-8", "p4-eps1e-4"])
def test_modulus_convexity_pins(p, eps, want, rel):
    assert modulus_convexity(Space(p, 2), eps) == pytest.approx(
        want, rel=rel, abs=0.0)


def test_modulus_convexity_rejects_extreme_p():
    with pytest.raises(GeometryError):
        modulus_convexity(Space(1, 2), 0.5)
    with pytest.raises(GeometryError):
        modulus_convexity(Space(INF, 2), 0.5)


def test_dual_involution():
    s = Space(1.5, 4)
    assert s.dual().dual() == s
    assert Space(1, 3).dual().p == INF
    assert Space(INF, 3).dual().p == 1


def test_sum_space_norms():
    s = SumSpace((Space(2, 2), Space(2, 2)), 1.0)
    v = np.array([3.0, 4.0, 0.0, 1.0])
    assert s.norm(v) == pytest.approx(6.0)
    s2 = SumSpace((Space(2, 2), Space(2, 2)), INF)
    assert s2.norm(v) == pytest.approx(5.0)
    assert s.dual().outer_p == INF


def test_sum_space_layout_is_computed_once():
    s = SumSpace((Space(2, 2), Space(1, 3)), 2.0)
    assert s.dim == 5 and s.offsets() == [(0, 2), (2, 5)]
    assert {"dim", "_offsets"} <= set(vars(s))      # cached on the instance
    s.offsets().append((5, 6))                      # callers get a copy
    assert [b.tolist() for b in s.split(np.arange(5.0))] == \
        [[0.0, 1.0], [2.0, 3.0, 4.0]]
    assert s == SumSpace((Space(2, 2), Space(1, 3)), 2.0)
    assert hash(s) == hash(SumSpace((Space(2, 2), Space(1, 3)), 2.0))


def _counted(bisect, calls):
    """bisect with every predicate call recorded in calls."""
    def run(ok):
        def counted(t):
            calls.append(t)
            return ok(t)
        return bisect(ok=counted)
    return run


@pytest.mark.parametrize("ok", [lambda t: t <= 0.3, lambda t: True,
                                lambda t: t < 1.0],
                         ids=["at-0.3", "everywhere", "below-1"])
def test_largest_feasible_stops_with_the_bits_of_200_halvings(ok):
    calls = []
    got = _counted(largest_feasible, calls)(ok)
    assert got.hex() == largest_feasible_halvings(ok).hex()
    assert len(calls) < 200


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
def test_hanner_root_stops_with_the_bits_of_200_halvings(p, monkeypatch):
    for eps in (1e-5, 0.1, 0.5, 1.0, 1.9):
        calls = []
        monkeypatch.setattr(spaces, "largest_feasible",
                            _counted(largest_feasible, calls))
        got = modulus_convexity(Space(p, 2), eps)
        monkeypatch.setattr(spaces, "largest_feasible",
                            largest_feasible_halvings)
        want = modulus_convexity(Space(p, 2), eps)
        assert got.hex() == want.hex(), eps
        assert 0 < len(calls) < 200, eps


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_profile_floors_stop_with_the_bits_of_200_halvings(p, monkeypatch):
    for eps in (0.05, 0.3, 0.7, 1.2):
        for floor in (membership._norm_profile_mass, membership._group_cap):
            calls = []
            monkeypatch.setattr(membership, "largest_feasible",
                                _counted(largest_feasible, calls))
            got = floor(p, eps)
            monkeypatch.setattr(membership, "largest_feasible",
                                largest_feasible_halvings)
            want = floor(p, eps)
            assert got.hex() == want.hex(), (floor.__name__, eps)
            assert 0 < len(calls) < 200, (floor.__name__, eps)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(EDGES) | st.floats(), min_size=1,
                max_size=12),
       st.booleans(), st.sampled_from([2, 2.0, 1.5, 3.0]))
def test_duality_map_matches_the_power_bit_for_bit(entries, cx, p):
    # at p = 2 the scalar 1.0 stands for |x| ** 0.0; signed zeros, infinite
    # and NaN parts and subnormals must keep the power's bits, with and
    # without a zero entry to mask
    z = np.array(entries, dtype=float)
    if cx:
        w = np.empty(len(z), dtype=complex)
        w.real, w.imag = z, z[::-1]
        z = w
    for a in (z[None, :], z[z != 0][None, :], z.reshape(-1, 1)):
        with np.errstate(all="ignore"):
            got = spaces.duality_map_rows(a, p)
            want = duality_map_rows_powered(a, p)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the start sampler against the one-vector reference
# ---------------------------------------------------------------------------

SAMPLER_SPACES = [Space(p, d, f) for p in (1.0, 1.5, 2.0, 3.0, INF)
                  for f in ("real", "complex") for d in (1, 2, 3, 7, 16, 64)]
SAMPLER_SUMS = [
    SumSpace((Space(3.0, 2), Space(1.5, 3), Space(3.0, 2)), 2.0),
    SumSpace((Space(1.0, 2, "complex"), Space(INF, 3, "complex")), 1.0),
    SumSpace((Space(2.0, 3), Space(1.0, 1)), 1.5),
    SumSpace((Space(1.5, 2, "complex"), Space(2.0, 2, "complex")), INF),
    # a block that is itself a sum draws its own profile in turn
    SumSpace((SumSpace((Space(3.0, 2), Space(1.0, 1)), 2.0), Space(2.0, 2)),
             1.0)]


def _bits(a):
    a = np.asarray(a)
    return (a.dtype.str, a.shape, a.tobytes())


@pytest.mark.parametrize("space", SAMPLER_SPACES + SAMPLER_SUMS)
def test_random_unit_rows_match_the_one_vector_draws(space):
    # count rows are the numbers of count reference draws in turn, and the
    # generator goes on where those draws leave it
    for count in (1, 5, 17):
        rng, again = np.random.default_rng(count), np.random.default_rng(count)
        got = random_unit_rows(space, rng, count)
        want = np.array([oracle.random_unit(space, again)
                         for _ in range(count)])
        assert _bits(got) == _bits(want)
        assert rng.normal() == again.normal()
    assert _bits(random_unit(space, np.random.default_rng(9))) == \
        _bits(oracle.random_unit(space, np.random.default_rng(9)))


class _ZeroNormals:
    """A generator stub whose normal draws are all zero."""

    def normal(self, size):
        return np.zeros(size)

    def uniform(self, low, high, size):
        return np.linspace(low, high, size)


@pytest.mark.parametrize("space", [Space(3.0, 4), Space(INF, 3, "complex"),
                                   SAMPLER_SUMS[0], SAMPLER_SUMS[1]],
                         ids=["l3", "sup-complex", "sum-2", "sum-1-complex"])
def test_random_unit_rows_give_e1_for_a_zero_draw(space):
    got = random_unit_rows(space, _ZeroNormals(), 3)
    want = np.array([oracle.random_unit(space, _ZeroNormals())
                     for _ in range(3)])
    assert _bits(got) == _bits(want)
    if not isinstance(space, SumSpace):
        assert got.tolist() == [[1.0] + [0.0] * (space.dim - 1)] * 3
    assert np.allclose(space.norm_rows(got), 1.0)
