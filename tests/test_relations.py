import itertools

import pytest

from spinegeo.cliques import family_K
from spinegeo.relations import (
    bits_of,
    compute_pi,
    compute_rho,
    _row_to_rle,
    graph_from_json,
    graph_to_json,
    strip,
)
from spinegeo.spine import LINE_AFFINE


def test_invariants_and_containment(cfg1_pi, cfg1_rho):
    cfg1_pi.check_invariants()
    cfg1_rho.check_invariants()
    for i in range(cfg1_pi.count):
        assert not cfg1_rho.rows[i] & ~cfg1_pi.rows[i]  # rho is a subrelation


def test_pi_against_plane_oracle(cfg1_space, cfg1_pi):
    # independent oracle: enumerate planes and mark every pair on one
    rows = [0] * len(cfg1_space.lines)
    for plane in cfg1_space.planes():
        for a, b in itertools.combinations(plane.line_ids, 2):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    assert rows == cfg1_pi.rows


def test_rho_against_pencil_oracle(cfg1_space, cfg1_rho):
    rows = [0] * len(cfg1_space.lines)
    for pencil in cfg1_space.pencils():
        if not pencil.proper:
            continue
        for a, b in itertools.combinations(sorted(pencil.line_ids), 2):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    assert rows == cfg1_rho.rows


def test_pencil_pairs_are_coplanar(cfg1_space, cfg1_pi):
    pencil = next(p for p in cfg1_space.pencils() if p.proper)
    for a, b in itertools.combinations(pencil.line_ids, 2):
        assert cfg1_pi.adjacent(a, b)


def test_skew_lines_in_a_star_are_not_coplanar(cfg1_space, cfg1_pi):
    # two lines of one star with disjoint closures span more than a plane
    star = next(s for s in cfg1_space.strongs if s.p_dim >= 3)
    lines = star.line_ids
    found = None
    for a, b in itertools.combinations(lines, 2):
        if not set(cfg1_space.lines[a].closure_gids) & set(cfg1_space.lines[b].closure_gids):
            found = (a, b)
            break
    assert found is not None
    assert not cfg1_pi.adjacent(*found)


def test_parallel_affine_lines_are_coplanar_but_not_copencil(cfg1_space, cfg1_pi, cfg1_rho):
    space = cfg1_space
    pair = None
    for pencil in space.pencils():
        if not pencil.proper and len(pencil.line_ids) == 2:
            pair = sorted(pencil.line_ids)
            break
    assert pair is not None
    a, b = pair
    assert space.lines[a].kind == LINE_AFFINE
    assert cfg1_pi.adjacent(a, b) and not cfg1_rho.adjacent(a, b)


def test_semibundle_restriction_of_pi_is_complete(cfg1_space, cfg1_pi):
    # all lines through one proper point inside one strong subspace are
    # pairwise coplanar
    for (sid, gid), lines in cfg1_space.semibundles(min_p_dim=2).items():
        if gid not in cfg1_space.pid_of_gid:
            continue
        for a, b in itertools.combinations(sorted(lines), 2):
            assert cfg1_pi.adjacent(a, b)


# ---------- strip ---------------------------------------------------------------

def test_strip_is_deterministic(cfg1_pi):
    s1 = strip(cfg1_pi, seed=5)
    s2 = strip(cfg1_pi, seed=5)
    assert s1.perm == s2.perm
    assert s1.graph.rows == s2.graph.rows
    assert strip(cfg1_pi, seed=6).perm != s1.perm


def test_strip_is_an_isomorphic_copy(cfg1_pi):
    sr = strip(cfg1_pi, seed=5)
    assert sorted(map(int.bit_count, sr.graph.rows)) == \
        sorted(map(int.bit_count, cfg1_pi.rows))
    for i in range(0, cfg1_pi.count, 37):
        for j in range(0, cfg1_pi.count, 53):
            assert cfg1_pi.adjacent(i, j) == sr.graph.adjacent(sr.perm[i], sr.perm[j])


def test_pipeline_on_stripped_graph_matches_up_to_permutation(cfg1_rho):
    # the spanned clique family commutes with stripping
    sr = strip(cfg1_rho, seed=9)
    plain = {frozenset(m) for m in family_K(cfg1_rho).members}
    stripped = family_K(sr.graph).members
    mapped_back = {frozenset(sr.inverse[l] for l in mem) for mem in stripped}
    assert mapped_back == plain


# ---------- serialisation ----------------------------------------------------------

def test_graph_json_roundtrip(cfg1_rho):
    doc = graph_to_json(cfg1_rho)
    back = graph_from_json(doc)
    assert back.rows == cfg1_rho.rows
    assert back.delta_kind == cfg1_rho.delta_kind


def _rle_bit_by_bit(row, n):
    """Reference encoder: one step per bit, alternating runs, zeros first."""
    runs, current, length = [], 0, 0
    for pos in range(n):
        bit = row >> pos & 1
        if bit == current:
            length += 1
        else:
            runs.append(length)
            current, length = bit, 1
    runs.append(length)
    return ",".join(map(str, runs))


@pytest.mark.parametrize("row, n", [
    (0, 0), (0, 7), (0b1111111, 7), (0b1, 7), (0b1000000, 7),
    (0b1000001, 7), (0b0110110, 7), (1, 1), (0, 1), (0b1010101, 7),
    (0b1110110, 4),  # bits at n and above are ignored
])
def test_row_to_rle_matches_bit_by_bit(row, n):
    assert _row_to_rle(row, n) == _rle_bit_by_bit(row, n)


def test_row_to_rle_matches_bit_by_bit_on_every_row(cfg1_pi):
    n = cfg1_pi.count
    for row in cfg1_pi.rows:
        assert _row_to_rle(row, n) == _rle_bit_by_bit(row, n)


def test_graph_json_rejects_bad_runs():
    doc = {"delta_kind": "pi", "count": 3, "adjacency": ["1,1,1", "3", "2"]}
    with pytest.raises(ValueError):
        graph_from_json(doc)


def test_bits_of():
    assert list(bits_of(0b101001)) == [0, 3, 5]
    assert list(bits_of(0)) == []
