import itertools

import pytest

from spinegeo import build_spine, standard_params
from spinegeo.gf import FieldSpec, contains, enumerate_subspaces
from spinegeo.grassmann import build_grassmann, pencil_through, star_of, top_of


@pytest.fixture(scope="module")
def g24():
    return build_grassmann(FieldSpec(2, 4), 2)


def test_point_count(g24):
    assert g24.point_count() == 35


def test_pencils_have_q_plus_one_points(g24):
    assert all(len(p.points) == 3 for p in g24.pencils)


def test_pencil_count_matches_incident_pair_enumeration(g24):
    # independent count: all (h, b) pairs with h < b, built from raw enumeration
    spec = g24.space
    hs = enumerate_subspaces(spec, 1)
    bs = enumerate_subspaces(spec, 3)
    expected = sum(1 for h in hs for b in bs if contains(b, h))
    assert g24.pencil_count() == expected


def test_k_range_is_enforced():
    with pytest.raises(ValueError):
        build_grassmann(FieldSpec(2, 4), 1)
    with pytest.raises(ValueError):
        build_grassmann(FieldSpec(2, 4), 3)


def test_star_and_top_extend_the_pencil(g24):
    p = g24.pencils[0]
    star = star_of(p)
    top = top_of(p)
    assert star.h == p.h and top.b == p.b
    pts = set(s.rows for s in p.points)
    assert pts <= {s.rows for s in star.points}
    assert pts <= {s.rows for s in top.points}


def test_same_h_gives_same_star(g24):
    p1 = g24.pencils[0]
    p2 = next(p for p in g24.pencils[1:] if p.h == p1.h)
    assert star_of(p1) == star_of(p2)


def test_partial_linear_space(g24):
    # two distinct points on a common pencil determine that pencil uniquely
    for p in g24.pencils[:40]:
        for u1, u2 in itertools.combinations(p.points, 2):
            q = pencil_through(g24, u1, u2)
            assert q is not None and (q.h, q.b) == (p.h, p.b)


def test_every_pencil_in_exactly_one_star_and_top(g24):
    # the (h, b) pair is the identity of the pencil, so extensions are unique
    seen = {}
    for p in g24.pencils:
        key = (p.h.rows, p.b.rows)
        assert key not in seen
        seen[key] = p


@pytest.mark.parametrize("params", [(2, 5, 2, 1, 3), (2, 4, 2, 2, 4)])
def test_spine_lines_are_the_ambient_pencils_with_two_proper_points(params):
    # the ambient space as oracle for the spine's own line enumeration;
    # (2,4,2,2,4) is the w = n case, where every pencil is a line
    space = build_spine(standard_params(*params))
    ambient = build_grassmann(space.params.space, space.params.k)
    proper = {u.rows for u in space.points}
    want = {(p.h.rows, p.b.rows) for p in ambient.pencils
            if sum(u.rows in proper for u in p.points) >= 2}
    assert {(ln.h.rows, ln.b.rows) for ln in space.lines} == want
    assert len(space.lines) == len(want)
