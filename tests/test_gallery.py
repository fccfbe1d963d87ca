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
    from bollobas_lab.gallery import corner_repair, _corner_near_state
    rng = np.random.default_rng(7)
    eps = 0.01
    sp = None
    while sp is None:
        sp = _corner_near_state(rng, 4, 1.0, eps)
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
