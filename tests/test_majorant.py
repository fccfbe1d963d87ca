"""norm_attainment.block_norm_majorant, the upper bound ||T|| <= ||N|| with
N_ij = ||T_ij|| on sums, and the labels it earns for the multistarts on
sums."""

import numpy as np
import pytest

from bollobas_lab import norm_attainment
from bollobas_lab.gallery import make_corner
from bollobas_lab.norm_attainment import block_norm_majorant, operator_norm
from bollobas_lab.operators import Dense, Lift, adjoint, to_matrix
from bollobas_lab.spaces import INF, Space, SumSpace

from _oracles import sampled_norm

P = [1.0, 1.5, 2.0, 3.0, INF]
OUTER = [1.0, 1.5, 2.0, INF]


def _side(rng, field, outer):
    """A 2-block sum of block dims 1-3 under outer, or in one case of six a
    flat space, which the majorant takes as a sum of one block."""
    def block():
        return Space(P[rng.integers(len(P))], int(rng.integers(1, 4)), field)
    if rng.uniform() < 1 / 6:
        return block()
    return SumSpace((block(), block()), outer)


def _random_case(rng):
    """(M, dom, cod): a random operator between 2-block sums, real or
    complex, its blocks zeroed one by one with probability 1/4.  The outer
    exponents agree in half the cases, where Riesz-Thorin may bound N."""
    field = "complex" if rng.uniform() < 0.5 else "real"
    outer = OUTER[rng.integers(len(OUTER))]
    dom = _side(rng, field, outer)
    if rng.uniform() >= 0.5:
        outer = OUTER[rng.integers(len(OUTER))]
    cod = _side(rng, field, outer)
    if not (isinstance(dom, SumSpace) or isinstance(cod, SumSpace)):
        cod = SumSpace((cod, cod), outer)
    shape = (cod.dim, dom.dim)
    M = rng.normal(size=shape) + (1j * rng.normal(size=shape)
                                  if field == "complex" else 0.0)
    rows = cod.offsets() if isinstance(cod, SumSpace) else [(0, cod.dim)]
    cols = dom.offsets() if isinstance(dom, SumSpace) else [(0, dom.dim)]
    for a, b in rows:
        for c, d in cols:
            if rng.uniform() < 0.25:
                M[a:b, c:d] = 0.0
    return M, dom, cod


def test_majorant_bounds_every_sampled_value():
    rng = np.random.default_rng(20261017)
    bounded = riesz_thorin = 0
    for i in range(150):
        M, dom, cod = _random_case(rng)
        bound = block_norm_majorant(M, dom, cod)
        if bound is None:
            continue
        bounded += 1
        riesz_thorin += isinstance(dom, SumSpace) and \
            isinstance(cod, SumSpace) and dom.outer_p == cod.outer_p == 1.5
        # the multistart's witness is one more vector to sample
        nr = operator_norm(Dense(M, dom, cod), restarts=8, iters=60, seed=i)
        low = sampled_norm(M, dom, cod, rng, extra=[nr.witness])
        assert bound >= low - 1e-12, (i, bound, low)
        # the result carries the majorant, clamped at the witnessed value
        assert nr.upper_bound == max(bound, nr.value) >= nr.value
    # both kinds of bound on N are reached
    assert bounded >= 40 and riesz_thorin >= 3, (bounded, riesz_thorin)


def _hilbert(rng, d):
    T = rng.normal(size=(d, d))
    return Dense(T / np.linalg.norm(T, 2), Space(2.0, d), Space(2.0, d))


@pytest.mark.parametrize("outer", [1.0, 1.5, 2.0, 3.0, INF])
def test_majorant_of_lifts_is_the_norm_of_the_child(outer):
    rng = np.random.default_rng([int(4 * min(outer, 9)), 1])
    for d in (1, 2, 3, 4):
        T = _hilbert(rng, d)
        # N has the one nonzero entry ||T||, from the child's own route
        for op, child in ((Lift(T, outer), T),
                          (adjoint(Lift(T, outer)), adjoint(T))):
            want = operator_norm(child).value
            got = block_norm_majorant(to_matrix(op), op.domain, op.codomain)
            if outer in (1.0, 2.0, INF):
                assert got == want
            else:       # Riesz-Thorin: ||N||_1^(1/p) ||N||_inf^(1 - 1/p)
                assert got == pytest.approx(want, rel=4e-16, abs=0)


@pytest.mark.parametrize("outer", [1.0, INF])
def test_majorant_of_the_corner_is_one(outer):
    for dim in range(2, 17):
        e = make_corner(dim, outer)
        M = to_matrix(e.expr)
        assert block_norm_majorant(M, e.expr.domain, e.expr.codomain) == 1.0


@pytest.fixture
def route_calls(monkeypatch):
    """The (block shape, dom p, cod p) of every certified-route call, and
    of every power_ascent_rows call, which must never come."""
    calls = {"routes": [], "ascents": []}
    route = norm_attainment._certified_norm

    def counted(M, dom, cod):
        calls["routes"].append((M.shape, dom.p, cod.p))
        return route(M, dom, cod)

    def ascent(*args, **kwargs):
        calls["ascents"].append(args)
        raise AssertionError("the majorant ran a multistart")

    monkeypatch.setattr(norm_attainment, "_certified_norm", counted)
    monkeypatch.setattr(norm_attainment, "power_ascent_rows", ascent)
    return calls


def test_uncertified_block_gives_none_without_a_search(route_calls):
    # l3 -> l3 has no certified route, so neither has the first block
    S = SumSpace((Space(3.0, 2), Space(2.0, 2)), 2.0)
    M = np.random.default_rng(3).normal(size=(4, 4))
    assert block_norm_majorant(M, S, S) is None
    assert route_calls["routes"] == [((2, 2), 3.0, 3.0)]
    # Hilbert blocks, but N from outer 1.5 to outer 3 has no route, and
    # Riesz-Thorin needs equal exponents
    dom = SumSpace((Space(2.0, 2), Space(2.0, 2)), 1.5)
    cod = SumSpace((Space(2.0, 2), Space(2.0, 2)), 3.0)
    assert block_norm_majorant(M, dom, cod) is None
    assert route_calls["routes"][-1] == ((2, 2), 1.5, 3.0)
    assert not route_calls["ascents"]


def test_zero_block_makes_no_route_call(route_calls):
    # the l3 -> l3 block is zero; the others are l1 -> l3, l3 -> sup and
    # l1 -> sup, all certified
    dom = SumSpace((Space(3.0, 2), Space(1.0, 3)), 2.0)
    cod = SumSpace((Space(3.0, 2), Space(INF, 2)), 2.0)
    M = np.random.default_rng(4).normal(size=(4, 5))
    M[:2, :2] = 0.0
    assert block_norm_majorant(M, dom, cod) is not None
    assert route_calls["routes"] == [((2, 3), 1.0, 3.0), ((2, 2), 3.0, INF),
                                     ((2, 3), 1.0, INF), ((2, 2), 2.0, 2.0)]
    assert not route_calls["ascents"]


def test_bracket_labels_sums():
    # the multistart reaches the corner's norm, so the bracket closes
    for outer in (1.0, INF):
        for dim in (4, 8, 16):
            for seed in (0, 1):
                nr = operator_norm(make_corner(dim, outer).expr, seed=seed)
                assert nr.value == 1.0 and nr.upper_bound == 1.0
                assert nr.certainty == "exact"
                assert nr.describe()["upper_bound"] == 1.0
    # flat routes carry no bound, and describe() leaves it out
    flat = operator_norm(Dense(np.eye(2), Space(2.0, 2), Space(2.0, 2)))
    assert flat.upper_bound is None and "upper_bound" not in flat.describe()


def test_bracket_never_inverts():
    # the Hilbert lift's adjoint: the majorant reads 0.9999999999999998,
    # and at most seeds the multistart witnesses 0.9999999999999999, an ulp
    # above it; the bound is clamped at the witnessed value
    T = _hilbert(np.random.default_rng(0), 3)
    for outer in (1.0, 2.0, INF):
        for seed in range(4):
            nr = operator_norm(adjoint(Lift(T, outer)), seed=seed)
            assert nr.upper_bound >= nr.value
            assert nr.certainty == "exact"
    late = norm_attainment.NormResult(1.0, "heuristic")
    nr = norm_attainment.bracketed(late, 1.0 - 2.0 ** -53)
    assert nr.upper_bound == nr.value == 1.0 and nr.certainty == "exact"
