import importlib
import typing

import numpy as np
import pytest

from bollobas_lab.errors import UnknownGalleryError
from bollobas_lab.gallery import (GALLERY_IDS, gallery, lifted_rank1_l1,
                                  parse_gallery_uri)
from bollobas_lab.operators import to_matrix
from bollobas_lab.spaces import INF, pair


@pytest.mark.parametrize("gid", GALLERY_IDS)
def test_all_claims_pass_at_eight(gid):
    dim = 8
    entry = gallery(gid, dim)
    for res in entry.run_claims(seed=0):
        assert res.passed, f"{gid}/{res.name}: {res.detail}"


def test_unknown_id():
    with pytest.raises(UnknownGalleryError):
        gallery("NOPE", 4)


def test_dim_minimums():
    with pytest.raises(UnknownGalleryError):
        gallery("G-BLOCK", 3)
    with pytest.raises(UnknownGalleryError):
        gallery("G-SKEW", 3)


def test_uri_parsing():
    e = parse_gallery_uri("gallery:G-BLOCK?dim=8&p=2")
    assert e.gid == "G-BLOCK" and e.params["dim"] == 8
    e2 = parse_gallery_uri("gallery:G-CORNER?dim=4&outer_p=inf")
    assert e2.params["outer_p"] == INF
    with pytest.raises(UnknownGalleryError):
        parse_gallery_uri("gallery:G-BLOCK")


def test_block_eval_structure():
    e = gallery("G-BLOCK", 8, p=2.0)
    M = to_matrix(e.expr)
    assert M[1, 1] == 1.0 and M[0, 0] == 0.5 and M[6, 6] == 1 - 1 / 8


def test_skew_matrix_shape():
    e = gallery("G-SKEW", 8)
    M = to_matrix(e.expr)
    assert M[1, 0] == -2.0 and M[0, 1] == 2.0      # leading pair, alpha_1 = 2
    assert M[6, 6] == 1.0 and M[7, 7] == 1.0       # trailing block
    assert np.allclose(M + M.T, np.diag(np.diag(M + M.T)))


def test_lifted_rank1_witness_seeds():
    lifted, desc, seeds = lifted_rank1_l1(8)
    (w, wstar), = seeds
    s = lifted.sum_space
    # the seed is a valid state with high value but dual distance one
    from bollobas_lab.spaces import StatePair
    sp = StatePair(w, wstar, s)
    sp.validate()
    val = abs(pair(wstar, lifted(w)))
    assert val == pytest.approx((1 - 0.5 ** 7) / (1 - 0.5 ** 8), abs=1e-12)
    dx, dxs = desc.pair_distance(w, wstar)
    assert dxs >= 1.0 - 1e-12
    # sampled attaining pairs are genuine
    rng = np.random.default_rng(0)
    for p in desc.sample(rng, 6):
        p.validate()
        assert abs(pair(p.xstar, lifted(p.x))) == pytest.approx(1.0, abs=1e-12)


def test_corner_repair_bounds_spec_point():
    from _oracles import corner_near_state
    from bollobas_lab.gallery import corner_repair
    rng = np.random.default_rng(7)
    eps = 0.01
    sp = None
    while sp is None:
        sp = corner_near_state(rng, 4, 1.0, eps)
    rep = corner_repair(sp, 4, 1.0)
    rep.validate()
    s = sp.space
    assert s.norm(sp.x - rep.x) <= eps + np.sqrt(2 * eps) + 1e-9
    assert s.dual().norm(sp.xstar - rep.xstar) <= np.sqrt(2 * eps) + 1e-9


def test_gallery_entry_annotations_resolve():
    from bollobas_lab.gallery import GalleryEntry
    from bollobas_lab.numerical_radius import NuStatesDescriptor
    hints = typing.get_type_hints(GalleryEntry)
    assert hints["attaining"] == typing.Optional[NuStatesDescriptor]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return repr(exc)


def _corner(dim, outer_p):
    from bollobas_lab.gallery import corner_matrix
    from bollobas_lab.operators import Dense
    from bollobas_lab.spaces import Space, SumSpace
    blk = Space(2.0, dim)
    space = SumSpace((blk, blk), outer_p)
    return Dense(corner_matrix(dim), space, space)


@pytest.mark.parametrize("outer_p", [1.0, 2.0, INF])
@pytest.mark.parametrize("dim", [4, 8, 16])
def test_corner_repair_bounds_rows_match_the_pair_loop(dim, outer_p):
    import _oracles as oracle
    from bollobas_lab.gallery import _corner_repair_bounds
    expr = _corner(dim, outer_p)
    for seed in (0, 1, 20261017):
        assert _outcome(_corner_repair_bounds, expr.domain, expr.matrix,
                        seed) == \
            _outcome(oracle.corner_repair_bounds, expr, dim, outer_p, seed)


@pytest.mark.parametrize("outer_p", [1.0, INF])
@pytest.mark.parametrize("dim", [4, 8, 16])
def test_corner_repair_bounds_rows_report_the_first_failure(
        dim, outer_p, monkeypatch):
    # the repair of the other outer norm: under outer 1 it leaves the unit
    # sphere, so the claim raises; under outer inf it misses the bound
    import _oracles as oracle
    gallery_module = importlib.import_module("bollobas_lab.gallery")
    other = INF if outer_p == 1 else 1.0
    rows = gallery_module.corner_repair_rows
    monkeypatch.setattr(gallery_module, "corner_repair_rows",
                        lambda X, XS, d, _p: rows(X, XS, d, other))
    expr = _corner(dim, outer_p)
    got = _outcome(gallery_module._corner_repair_bounds, expr.domain,
                   expr.matrix, 3)
    want = _outcome(oracle.corner_repair_bounds, expr, dim, outer_p, 3,
                    lambda sp, d, _p: oracle.corner_repair(sp, d, other))
    assert got == want
    assert got[0] is False if outer_p == INF else "GeometryError" in got


@pytest.fixture
def search_calls(monkeypatch):
    """The names of the row engines called, polish_rows and
    power_ascent_rows, through whichever module imported them."""
    import sys
    from bollobas_lab import _search
    calls = []
    for name in ("polish_rows", "power_ascent_rows"):
        inner = getattr(_search, name)

        def spy(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("bollobas_lab") and \
                    getattr(mod, name, None) is inner:
                monkeypatch.setattr(mod, name, spy)
    return calls


@pytest.mark.parametrize("outer_p", [1.0, INF])
@pytest.mark.parametrize("dim", [4, 8, 16])
def test_corner_claims_check_the_majorant_without_a_search(dim, outer_p,
                                                          search_calls):
    from bollobas_lab.gallery import make_corner
    results = {r.name: r for r in make_corner(dim, outer_p).run_claims(0)}
    assert all(r.passed for r in results.values())
    for name in ("nu-one-attained", "norm-one"):
        assert results[name].detail == "witness value=1.0, bound=1.0"
    assert search_calls == []
    # the spies see a search where one runs
    from bollobas_lab.numerical_radius import numerical_radius
    numerical_radius(_corner(dim, outer_p), restarts=1, iters=1)
    assert search_calls == ["polish_rows"]


@pytest.mark.parametrize("outer_p", [1.0, INF])
@pytest.mark.parametrize("dim", [4, 8])
def test_corner_claims_fail_on_a_scaled_corner(dim, outer_p):
    import dataclasses
    from bollobas_lab.gallery import corner_matrix, make_corner
    from bollobas_lab.operators import Dense
    entry = make_corner(dim, outer_p)
    space = entry.expr.domain
    scaled = dataclasses.replace(
        entry, expr=Dense(1.01 * corner_matrix(dim), space, space))
    results = {r.name: r for r in scaled.run_claims(0)}
    for name in ("nu-one-attained", "norm-one"):
        assert not results[name].passed
        assert results[name].detail == "witness value=1.01, bound=1.01"
