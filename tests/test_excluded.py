import itertools

import pytest

from spinegeo import build_spine, standard_params
from spinegeo.excluded import (
    CASE_GRASSMANN,
    CASE_NEIGHBOURHOOD,
    CASE_NONE,
    CASE_POINT,
    CASE_STAR,
    CASE_TOP,
    build_homology_map,
    classify_case,
    verify_counterexample,
)
from spinegeo.gf import apply_matrix, subspace_key
from spinegeo.spine import STAR_ALPHA

from oracles import homology_matrix, invert_matrix


def test_case_patterns():
    cases = {
        (2, 4, 2, 2, 4): (CASE_GRASSMANN, True),
        (2, 5, 2, 2, 2): (CASE_POINT, True),
        (2, 5, 3, 2, 2): (CASE_STAR, True),
        (2, 5, 2, 2, 3): (CASE_TOP, True),
        (3, 5, 2, 1, 2): (CASE_NEIGHBOURHOOD, "unproved"),
        (2, 6, 2, 1, 3): (CASE_NONE, True),       # bundle gate formula holds
        (2, 6, 3, 0, 1): (CASE_NONE, "unknown"),  # bundle gate fails
    }
    for params, (tag, holds) in cases.items():
        case = classify_case(standard_params(*params))
        assert (case.tag, case.star_holds) == (tag, holds), params


def test_neighbourhood_intersection_shape(cex_space):
    # two stars (or two tops) are disjoint; a star and a top share a line
    # whose closure passes through W
    space = cex_space
    w_gid = space.gid_of[subspace_key(space.params.w)]
    stars = [s for s in space.strongs if s.kind.endswith("star")]
    tops = [s for s in space.strongs if s.kind.endswith("top")]
    for a, b in itertools.combinations(stars, 2):
        assert not a.point_pids & b.point_pids
    for a, b in itertools.combinations(tops, 2):
        assert not a.point_pids & b.point_pids
    line_sets = {frozenset(ln.proper_pids): ln for ln in space.lines}
    for s in stars:
        for t in tops:
            inter = frozenset(s.point_pids & t.point_pids)
            if not inter:
                continue
            ln = line_sets.get(inter)
            assert ln is not None, "a star and a top must share a full line"
            assert w_gid in ln.closure_gids


def test_homology_map_needs_gf3():
    space = build_spine(standard_params(2, 5, 2, 1, 2))
    star = next(s for s in space.strongs if s.kind == STAR_ALPHA)
    with pytest.raises(ValueError):
        build_homology_map(space, star, 1)


@pytest.mark.parametrize("params", [
    (3, 4, 2, 1, 2),
    (3, 5, 2, 1, 2),  # cex
    (5, 4, 2, 1, 2),  # over GF(5) and GF(7) phi(w_vec) need not be its own inverse
    (7, 4, 2, 1, 2),
    (3, 5, 3, 2, 3),
])
def test_homology_map_matches_the_change_of_basis_oracle(params):
    # the matrix written from the axis and centre moves every line of the
    # star as B^-1 D B does, for every alpha star and every scale
    space = build_spine(standard_params(*params))
    stars = [s for s in space.strongs if s.kind == STAR_ALPHA]
    assert len(stars) >= 4
    for star in stars:
        for scale in range(2, params[0]):
            t_mat = homology_matrix(space, star, scale)
            want = list(range(len(space.lines)))
            for lid in star.line_ids:
                ln = space.lines[lid]
                want[lid] = space.line_id_by_hb[(apply_matrix(ln.h, t_mat).rows,
                                                 apply_matrix(ln.b, t_mat).rows)]
            lmap = build_homology_map(space, star, scale)
            assert lmap.perm == tuple(want), (star.id, scale)
            assert lmap.moved


def test_homology_oracle_inverts_and_rejects_a_singular_matrix():
    mat = ((1, 1, 0), (0, 1, 2), (0, 0, 1))
    assert invert_matrix(mat, 3) == ((1, 2, 2), (0, 1, 1), (0, 0, 1))
    with pytest.raises(ValueError):
        invert_matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)), 3)


def test_homology_map_fixes_lines_through_w(cex_space):
    space = cex_space
    star = next(s for s in space.strongs if s.kind == STAR_ALPHA)
    lmap = build_homology_map(space, star, scale=2)
    w_gid = space.gid_of[subspace_key(space.params.w)]
    star_lines = set(star.line_ids)
    for ln in space.lines:
        if lmap.perm[ln.id] != ln.id:
            assert ln.id in star_lines
            assert w_gid not in ln.closure_gids
        elif ln.id in star_lines and w_gid in ln.closure_gids:
            assert lmap.perm[ln.id] == ln.id
    assert sorted(lmap.perm) == list(range(len(space.lines)))
    assert lmap.moved


def test_counterexample_full_report(cex_space, cex_pi, cex_rho):
    space = cex_space
    star = next(s for s in space.strongs if s.kind == STAR_ALPHA)
    lmap = build_homology_map(space, star, scale=2)
    report = verify_counterexample(space, lmap, cex_pi, cex_rho)
    assert report["ok"]
    assert report["checks"] == {
        "preserves_pi": True,
        "preserves_rho": True,
        "semibundle_moved": True,
        "bundle_not_preserved": True,
    }
    w = report["witness"]
    assert w["moved_to_gid"] != w["vertex_gid"]
    # both vertices lie on the shared line, as the construction promises
    shared = space.lines[w["shared_line"]]
    assert w["vertex_gid"] in shared.closure_gids
    assert w["moved_to_gid"] in shared.closure_gids


def test_wrong_case_is_rejected(cfg1_space):
    star = next(s for s in cfg1_space.strongs if s.kind == STAR_ALPHA)
    with pytest.raises(ValueError):
        build_homology_map(cfg1_space, star, 2)
