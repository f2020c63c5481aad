import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinegeo import verify
from spinegeo.cliques import family_K
from spinegeo.gf import FieldSpec, rref
from spinegeo.relations import (
    LineRelationGraph,
    bits_of,
    _row_to_rle,
    compute_pi,
    compute_rho,
    graph_from_json,
    graph_to_json,
    strip,
)
from spinegeo.spine import LINE_AFFINE, SpineParams, build_spine, standard_params


def test_invariants_and_containment(cfg1_pi, cfg1_rho):
    cfg1_pi.check_invariants()
    cfg1_rho.check_invariants()
    for i in range(cfg1_pi.count):
        assert not cfg1_rho.rows[i] & ~cfg1_pi.rows[i]  # rho is a subrelation


def test_relation_sanity_reports_a_broken_invariant_instead_of_raising():
    class Stub:  # a workspace whose pi has the edge (0, 1) without (1, 0)
        def graph(self, kind):
            return LineRelationGraph(kind, [0b010, 0, 0] if kind == "pi" else [0, 0, 0])

    report = verify.check_relation_sanity(Stub())
    assert report == {"ok": False, "rho_subset_pi": True, "pi_edges": 0, "rho_edges": 0,
                      "invariant_problems": ["pi: relation not symmetric at (0, 1)"]}


def plane_pair_rows(space) -> list[int]:
    """Independent oracle for pi: enumerate planes and mark every pair on one."""
    rows = [0] * len(space.lines)
    for plane in space.planes():
        for a, b in itertools.combinations(plane.line_ids, 2):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def proper_pencil_pair_rows(space) -> list[int]:
    """Independent oracle for rho: mark every pair on one proper pencil."""
    rows = [0] * len(space.lines)
    for pencil in space.pencils():
        if not pencil.proper:
            continue
        for a, b in itertools.combinations(sorted(pencil.line_ids), 2):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def test_pi_against_plane_oracle(cfg1_space, cfg1_pi):
    assert plane_pair_rows(cfg1_space) == cfg1_pi.rows


def test_rho_against_pencil_oracle(cfg1_space, cfg1_rho):
    assert proper_pencil_pair_rows(cfg1_space) == cfg1_rho.rows


@functools.lru_cache(maxsize=None)
def oracle_space(params, w_side):
    """The space of `params`, W on the last w coordinates (tail) or the first (head)."""
    if w_side == "tail":
        return build_spine(standard_params(*params))
    q, n, k, m, w = params
    spec = FieldSpec(q, n)
    head = rref(spec, [tuple(int(i == j) for j in range(n)) for i in range(w)])
    return build_spine(SpineParams(spec, k, m, head))


# cex, the GF(3) twin, four more shapes over GF(2), GF(3) and GF(5), and two with W
# on the first coordinates; then every other valid config with q = 2 and n <= 5 or
# with q = 3 and n = 4, which take in each star and top class void by dimension and
# by meet; built once per session, all 47 in about a second
ORACLE_SPACES = pytest.mark.parametrize("params, w_side", [
    ((3, 5, 2, 1, 2), "tail"), ((3, 4, 2, 1, 3), "tail"), ((2, 5, 2, 0, 3), "tail"),
    ((5, 4, 2, 1, 2), "tail"), ((2, 6, 2, 2, 4), "tail"),
    ((2, 5, 2, 1, 3), "head"), ((3, 4, 2, 0, 2), "head"),
    *[(cfg, "tail") for cfg in [
        (2, 4, 2, 0, 0), (2, 4, 2, 0, 1), (2, 4, 2, 1, 1), (2, 4, 2, 0, 2), (2, 4, 2, 1, 2),
        (2, 4, 2, 2, 2), (2, 4, 2, 1, 3), (2, 4, 2, 2, 3), (2, 4, 2, 2, 4),
        (2, 5, 2, 0, 0), (2, 5, 2, 0, 1), (2, 5, 2, 1, 1), (2, 5, 2, 0, 2), (2, 5, 2, 1, 2),
        (2, 5, 2, 2, 2), (2, 5, 2, 1, 3), (2, 5, 2, 2, 3), (2, 5, 2, 1, 4), (2, 5, 2, 2, 4),
        (2, 5, 2, 2, 5),
        (2, 5, 3, 0, 0), (2, 5, 3, 0, 1), (2, 5, 3, 1, 1), (2, 5, 3, 0, 2), (2, 5, 3, 1, 2),
        (2, 5, 3, 2, 2), (2, 5, 3, 1, 3), (2, 5, 3, 2, 3), (2, 5, 3, 3, 3), (2, 5, 3, 2, 4),
        (2, 5, 3, 3, 4), (2, 5, 3, 3, 5),
        (3, 4, 2, 0, 0), (3, 4, 2, 0, 1), (3, 4, 2, 1, 1), (3, 4, 2, 0, 2), (3, 4, 2, 1, 2),
        (3, 4, 2, 2, 2), (3, 4, 2, 2, 3), (3, 4, 2, 2, 4),
    ]],
])


@ORACLE_SPACES
def test_pi_against_plane_oracle_on_more_spaces(params, w_side):
    space = oracle_space(params, w_side)
    assert plane_pair_rows(space) == compute_pi(space).rows


@ORACLE_SPACES
def test_rho_against_pencil_oracle_on_more_spaces(params, w_side):
    space = oracle_space(params, w_side)
    assert proper_pencil_pair_rows(space) == compute_rho(space).rows


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
        assert _row_to_rle(row, n) == reference_row_to_rle(row, n)


def reference_row_to_rle(row, n):
    """The earlier encoder: a run walk by trailing-zero counts of the
    shifted row and of its complement."""
    row &= (1 << n) - 1
    runs = []
    pos = 0
    while True:
        rest = row >> pos
        zeros = (rest & -rest).bit_length() - 1 if rest else n - pos
        runs.append(zeros)
        pos += zeros
        if pos == n:
            break
        rest >>= zeros
        ones = (rest ^ (rest + 1)).bit_length() - 1
        runs.append(ones)
        pos += ones
        if pos == n:
            break
    return ",".join(map(str, runs))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.integers(0, (1 << (n + 8)) - 1), st.just(n))))
@example((0, 0))
@example((0, 9))
@example((1, 9))  # bit 0: a leading zero run of length 0
@example((1 << 8, 9))  # bit n - 1
@example(((1 << 9) - 1, 9))  # all n bits
@example((0b1011 << 9 | 0b10, 9))  # bits above n are ignored
@example((0b111 << 9, 9))  # only bits above n: an empty row
def test_row_to_rle_matches_the_run_walk(case):
    row, n = case
    assert _row_to_rle(row, n) == reference_row_to_rle(row, n)


def reference_check_invariants(graph):
    """The earlier check: symmetry tested edge by edge with a shift of the
    partner's row."""
    for i, r in enumerate(graph.rows):
        if r >> i & 1:
            raise AssertionError(f"relation is reflexive at line {i}")
        if r >> graph.count:
            raise AssertionError(f"row {i} has bits beyond the line universe")
    for i in range(graph.count):
        for j in bits_of(graph.rows[i]):
            if not graph.rows[j] >> i & 1:
                raise AssertionError(f"relation not symmetric at ({i}, {j})")


def _invariant_error(check, rows):
    try:
        check(LineRelationGraph("pi", rows))
    except AssertionError as err:
        return str(err)
    return None


def _symmetric_rows(n, pairs):
    rows = [0] * n
    for i, j in pairs:
        if i != j:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n + 3)), max_size=3))))
@example((3, [(0, 1), (1, 2)], []))  # symmetric
@example((3, [(0, 2)], [(1, 0)]))  # one asymmetric pair, found at its row
@example((4, [(2, 3)], [(3, 1), (1, 0)]))  # the first asymmetric pair in row order
@example((3, [(0, 1)], [(2, 2), (0, 2)]))  # a reflexive bit wins over asymmetry
@example((3, [(0, 1)], [(1, 4)]))  # a bit beyond the universe
def test_check_invariants_matches_the_edge_by_edge_check(case):
    # a symmetric relation, then single bits flipped (asymmetric pairs, the
    # diagonal, bits at n and above): the same error, on the same pair
    n, pairs, flips = case
    rows = _symmetric_rows(n, pairs)
    for i, j in flips:
        rows[i] ^= 1 << j
    assert (_invariant_error(LineRelationGraph.check_invariants, rows)
            == _invariant_error(reference_check_invariants, rows))


def test_check_invariants_matches_the_edge_by_edge_check_on_real_rows(cfg1_pi):
    rows = list(cfg1_pi.rows)
    assert _invariant_error(LineRelationGraph.check_invariants, rows) is None
    j = bits_of(rows[700])[0]
    rows[j] ^= 1 << 700  # (700, j) loses its mirror
    rows[900] ^= 1 << 901  # and (900, 901) or (901, 900) does
    want = f"relation not symmetric at (700, {j})"
    assert _invariant_error(reference_check_invariants, rows) == want
    assert _invariant_error(LineRelationGraph.check_invariants, rows) == want


def test_graph_json_rejects_bad_runs():
    doc = {"delta_kind": "pi", "count": 3, "adjacency": ["1,1,1", "3", "2"]}
    with pytest.raises(ValueError):
        graph_from_json(doc)


def test_bits_of():
    assert list(bits_of(0b101001)) == [0, 3, 5]
    assert list(bits_of(0)) == []
