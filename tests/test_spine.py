import hashlib
import itertools
import json
import sys
from collections import Counter

import pytest

from conftest import ambient_pencil_lines, count_calls
from oracles import dim_intersect
from spinegeo import gf
from spinegeo.gf import (FieldSpec, enumerate_between, enumerate_subspaces, full_subspace,
                         intersect, rref, standard_tail_subspace, subspace_key, subspace_sum,
                         zero_subspace)
from spinegeo.spine import (
    LINE_AFFINE,
    LINE_ALPHA,
    LINE_OMEGA,
    PLANE_AFFINE,
    PLANE_PROJECTIVE,
    PLANE_PUNCTURED,
    STAR_ALPHA,
    STAR_OMEGA,
    TOP_ALPHA,
    TOP_OMEGA,
    SpineParams,
    build_spine,
    classify_line,
    space_json_text,
    standard_params,
    validate_params,
)


# ---------- parameter gates --------------------------------------------------

def test_gates_on_the_reference_config():
    rep = validate_params(standard_params(2, 6, 2, 1, 3))
    assert rep.basic and rep.bundle_gate and not rep.pencil_gate


def test_gates_on_the_pencil_config():
    rep = validate_params(standard_params(2, 6, 3, 0, 1))
    assert rep.basic and rep.pencil_gate and not rep.bundle_gate


def test_gates_on_the_neighbourhood_config():
    rep = validate_params(standard_params(3, 5, 2, 1, 2))
    assert rep.basic and not rep.bundle_gate


def test_admissible_m_range():
    # n=6, k=3, w=2: the required meet must lie between k-codim(W) and min(k, w)
    ok = [m for m in range(-1, 5) if validate_params(standard_params(2, 6, 3, m, 2)).basic]
    assert ok == [0, 1, 2]


# ---------- line classification ------------------------------------------------

def test_classify_line_rows():
    assert classify_line(1, 2, 1) == LINE_AFFINE
    assert classify_line(1, 1, 1) == LINE_ALPHA
    assert classify_line(0, 2, 1) == LINE_OMEGA
    assert classify_line(0, 1, 1) is None
    assert classify_line(1, 3, 1) is None


def test_line_class_matches_improper_point_count(cfg1_space):
    for ln in cfg1_space.lines:
        improper = len(ln.closure_gids) - len(ln.proper_pids)
        if ln.kind == LINE_AFFINE:
            assert improper == 1 and ln.improper_gid is not None
        else:
            assert improper == 0 and ln.improper_gid is None


def test_line_sizes_over_gf2(cfg1_space):
    for ln in cfg1_space.lines:
        expected = 2 if ln.kind == LINE_AFFINE else 3
        assert len(ln.proper_pids) == expected


# ---------- the reference space -------------------------------------------------

def test_cfg1_point_count_against_exhaustive_filter(cfg1_space):
    # oracle: enumerate all 2-subspaces of GF(2)^6 and filter on the meet with W
    spec = FieldSpec(2, 6)
    w = standard_tail_subspace(spec, 3)
    subs = enumerate_subspaces(spec, 2)
    assert len(subs) == 651
    proper = [u for u in subs if dim_intersect(u, w) == 1]
    assert len(proper) == 196
    assert len(cfg1_space.points) == 196
    assert [u.rows for u in cfg1_space.points] == [u.rows for u in proper]


def test_cfg1_line_census(cfg1_space):
    kinds = Counter(ln.kind for ln in cfg1_space.lines)
    assert kinds == {LINE_AFFINE: 294, LINE_ALPHA: 784, LINE_OMEGA: 392}


def test_cfg1_line_set_matches_pencil_filter(cfg1_space):
    # oracle: a pencil p(H, B) of the ambient space is a line of the fragment
    # iff it keeps at least two proper points
    want = ambient_pencil_lines(cfg1_space)
    assert {(ln.h.rows, ln.b.rows) for ln in cfg1_space.lines} == want
    assert want == set(cfg1_space.line_id_by_hb)
    assert len(cfg1_space.lines) == len(want)


def test_full_w_gives_the_grassmann_space():
    space = build_spine(standard_params(2, 4, 2, 2, 4))
    assert len(space.points) == 35
    assert all(ln.kind == LINE_OMEGA for ln in space.lines)
    assert not space.degenerate


def test_single_point_case_degenerates_without_crashing():
    space = build_spine(standard_params(2, 5, 2, 2, 2))
    assert len(space.points) == 1
    assert not space.lines
    assert space.degenerate


def test_invalid_params_raise():
    with pytest.raises(ValueError):
        build_spine(standard_params(2, 6, 2, 2, 1))  # m > w


# ---------- strong subspaces ------------------------------------------------------

def test_cfg1_strong_census(cfg1_space):
    census = Counter((s.kind, s.p_dim, s.d_dim) for s in cfg1_space.strongs)
    assert census == {
        ("omega-star", 2, -1): 56,
        ("alpha-star", 4, 1): 7,
        ("omega-top", 2, 0): 98,
    }
    assert "alpha-top" in cfg1_space.void_classes


def test_strong_subspaces_are_strong(cfg1_space):
    # every pair of points inside is collinear within the fragment
    space = cfg1_space
    line_pairs = set()
    for ln in space.lines:
        for a, b in itertools.combinations(ln.proper_pids, 2):
            line_pairs.add((min(a, b), max(a, b)))
    for st in space.strongs:
        for a, b in itertools.combinations(sorted(st.point_pids), 2):
            assert (a, b) in line_pairs


def test_strong_subspaces_are_maximal(cfg1_space):
    space = cfg1_space
    collinear = {pid: set() for pid in range(len(space.points))}
    for ln in space.lines:
        for a in ln.proper_pids:
            collinear[a].update(ln.proper_pids)
    for st in space.strongs:
        pts = st.point_pids
        outside_ok = [
            p for p in range(len(space.points))
            if p not in pts and pts <= collinear[p]
        ]
        assert not outside_ok, f"{st.kind} {st.id} extends by {outside_ok[:3]}"


def test_every_line_in_at_most_one_star_and_one_top(cfg1_space):
    space = cfg1_space
    for ln in space.lines:
        hosts = [s for s in space.strongs if ln.id in s.line_ids]
        stars = [s for s in hosts if s.kind.endswith("star")]
        tops = [s for s in hosts if s.kind.endswith("top")]
        assert len(stars) <= 1 and len(tops) <= 1
        assert space.star_of_line[ln.id] == (stars[0].id if stars else None)
        assert space.top_of_line[ln.id] == (tops[0].id if tops else None)


# ---------- planes and pencils -----------------------------------------------------

def test_cfg1_plane_kinds_and_sizes(cfg1_space):
    planes = cfg1_space.planes()
    kinds = Counter(p.kind for p in planes)
    assert set(kinds) == {PLANE_PROJECTIVE, PLANE_PUNCTURED, PLANE_AFFINE}
    for p in planes:
        proper = len(p.closure_gids) - len(p.improper_gids)
        if p.kind == PLANE_PROJECTIVE:
            assert proper == 7
        elif p.kind == PLANE_PUNCTURED:
            assert proper == 6
        else:
            assert proper == 4  # an affine plane over GF(2) keeps 4 points


def test_cfg1_geometric_pencils(cfg1_space):
    pencils = cfg1_space.pencils()
    sizes = Counter((p.proper, len(p.line_ids)) for p in pencils)
    # proper pencils have q+1 lines; parallel pencils have q+1 on a punctured
    # plane (through the puncture) and q on an affine plane
    assert set(sizes) == {(True, 3), (False, 3), (False, 2)}
    for p in pencils:
        closures = [set(cfg1_space.lines[l].closure_gids) for l in p.line_ids]
        common = set.intersection(*closures)
        assert common == {p.vertex_gid}


def test_foundational_checks_cfg1(cfg1_space):
    assert cfg1_space.check_fact_intersections()["ok"]
    assert cfg1_space.check_tripod_span()["ok"]


def test_foundational_checks_neighbourhood(cex_space):
    assert cex_space.check_fact_intersections()["ok"]
    assert cex_space.check_tripod_span()["ok"]


# ---------- semibundle lookup ----------------------------------------------------

@pytest.fixture(params=["cfg1_space", "cex_space", "twin_space"])
def space_and_semibundles(request):
    space = request.getfixturevalue(request.param)
    return space, space.semibundles(min_p_dim=2)


def test_semibundle_at_inverts_the_table(space_and_semibundles):
    space, table = space_and_semibundles
    reverse = {lines: key for key, lines in table.items()}
    assert len(reverse) == len(table) > 0
    for key, lines in table.items():
        assert space.semibundle_at(lines) == reverse[lines] == key
        # which two lines come first does not matter
        ordered = sorted(lines)
        assert space.semibundle_at(tuple(ordered)) == key
        assert space.semibundle_at(tuple(reversed(ordered))) == key
        assert space.semibundle_at(tuple(ordered[1:] + ordered[:1])) == key
    # a plane's pencil is an L_U(X) exactly where the plane is a strong subspace
    for pencil in space.pencils():
        assert space.semibundle_at(pencil.line_ids) == reverse.get(pencil.line_ids)


def test_semibundle_at_rejects_other_line_sets(space_and_semibundles):
    space, table = space_and_semibundles
    keys = sorted(table)
    extended = 0
    for sid, g in keys:
        lines = table[(sid, g)]
        for l in lines:
            assert space.semibundle_at(tuple(x for x in lines if x != l)) is None
            assert space.semibundle_at((l,)) is None
        # a line of the same strong subspace, off the vertex
        other = next((l for l in space.strongs[sid].line_ids
                      if g not in space.lines[l].closure_gids), None)
        if other is not None:
            extended += 1
            ordered = sorted(lines)
            assert space.semibundle_at(tuple(sorted(lines + (other,)))) is None
            assert space.semibundle_at((other, *ordered)) is None
            assert space.semibundle_at((*ordered, other)) is None
    assert extended > 0
    for a, b in zip(keys, keys[1:]):
        union = tuple(sorted(set(table[a]) | set(table[b])))
        assert space.semibundle_at(union) is None
        assert space.semibundle_at(tuple(sorted(union, reverse=True))) is None


# ---------- export ------------------------------------------------------------------

def test_space_export_is_canonical_and_deterministic(cfg1_space):
    text1 = space_json_text(cfg1_space)
    text2 = space_json_text(cfg1_space)
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["params"] == {"q": 2, "n": 6, "k": 2, "m": 1, "w": 3,
                             "w_basis": "000100000010000001"}
    assert len(doc["points"]) == 196
    assert len(doc["lines"]) == 1470
    assert all(set(p) <= set("01") and len(p) == 12 for p in doc["points"])


# ---------- ids and bytes pinned -------------------------------------------------

# sha256 of the space JSON, the plane table and the pencil table: the
# enumeration order fixes every id, so any change of order or content shows
# here.  A line lists its closure points in the order of its lift (u, v) of B
# modulo H (H + v, then H + (u + t v) for t = 0, ..., q-1), and a plane its
# closure points, and its pencils their vertices, in order of first sight over
# the plane's lines (ascending ids).
PINNED_TABLES = {
    (2, 5, 2, 1, 3): "b959504b7eb4f87a06c726ab995a5a98616f034c1cced659dabfc7917acba277",
    (3, 4, 2, 1, 3): "fd9f65fb3dba207c9f2dc9e70aadcab1c47620d0a78cbe18525115e062a22001",
    (3, 5, 2, 1, 2): "48074738dddd08a0d04535400f7d41fa4d05f448ec428c69b0c4c32851a32dd6",
    # these two carry the void-class messages the m = 1 configs never show:
    # m = 0 leaves no omega star (m-1 = -1) and no alpha top generator
    (2, 5, 2, 0, 3): "00108db878e1edcf619ef1ce7d1a9a3c29afbcdd33fe25f4c033cac0cca237ca",
    # m = k = 2: no alpha star generator
    (2, 6, 2, 2, 4): "9dadd8d447b7ffb47e5b58ee89667054b6c50ed6ef3981640cd989d7cdd9555e",
}


@pytest.mark.parametrize("params", sorted(PINNED_TABLES))
def test_space_plane_and_pencil_tables_are_pinned(params):
    space = build_spine(standard_params(*params))
    planes = [(x.id, x.side, x.low.rows, x.high.rows, x.kind, x.line_ids, x.closure_gids,
               x.improper_gids) for x in space.planes()]
    pencils = [(x.plane_id, x.vertex_gid, x.proper, sorted(x.line_ids))
               for x in space.pencils()]
    text = space_json_text(space) + repr(planes) + repr(pencils)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TABLES[params]


@pytest.mark.parametrize("params", [(2, 5, 2, 1, 3), (3, 4, 2, 1, 3)])
def test_a_head_w_gives_the_census_of_the_tail_w(params):
    q, n, k, m, w = params
    spec = FieldSpec(q, n)
    head = rref(spec, [tuple(int(i == j) for j in range(n)) for i in range(w)])
    tail_space = build_spine(standard_params(*params))
    head_space = build_spine(SpineParams(spec, k, m, head))
    for space in (tail_space, head_space):
        assert all(dim_intersect(space.grass[g], space.params.w) == m
                   for g in space.proper_gids)
    assert len(head_space.points) == len(tail_space.points)
    assert (Counter(ln.kind for ln in head_space.lines)
            == Counter(ln.kind for ln in tail_space.lines))
    assert (Counter(st.kind for st in head_space.strongs)
            == Counter(st.kind for st in tail_space.strongs))
    assert (Counter(pl.kind for pl in head_space.planes())
            == Counter(pl.kind for pl in tail_space.planes()))


# ---------- the build against its per-line canonicalisation ---------------------

def _params(params, w_side):
    """`params` with W on the last w coordinates (tail) or the first w (head)."""
    q, n, k, m, w = params
    if w_side == "tail":
        return standard_params(*params)
    spec = FieldSpec(q, n)
    return SpineParams(spec, k, m, rref(spec, [tuple(int(i == j) for j in range(n))
                                               for i in range(w)]))


PER_LINE_CONFIGS = [
    (2, 5, 2, 1, 3), (2, 5, 2, 0, 3), (3, 4, 2, 1, 3), (3, 4, 2, 0, 2),
    (2, 5, 3, 1, 2), (2, 6, 4, 2, 3), (3, 5, 3, 1, 2), (5, 4, 2, 1, 2),
]


@pytest.mark.parametrize("w_side", ["tail", "head"])
@pytest.mark.parametrize("params", PER_LINE_CONFIGS)
def test_shared_spans_and_closure_points_match_the_per_line_path(params, w_side):
    # the build canonicalises each span B and each closure point once; here
    # every closure is listed again by `enumerate_between` and every subspace
    # looked up by its own key, as the build did per line before; the build
    # lists a closure in its lift's order, so the lists are compared sorted
    space = build_spine(_params(params, w_side))
    k, w = space.params.k, space.params.w
    full, zero = full_subspace(space.params.space), zero_subspace(space.params.space)

    def gids(low, high):
        return tuple(space.gid_of[subspace_key(u)] for u in enumerate_between(low, high, k))

    assert space.lines
    for ln in space.lines:
        assert sorted(ln.closure_gids) == sorted(gids(ln.h, ln.b))
        if ln.kind == LINE_AFFINE:
            assert space.grass[ln.improper_gid] == subspace_sum(ln.h, intersect(ln.b, w))
    bounds = {
        STAR_OMEGA: lambda h: (h, subspace_sum(h, w)),
        STAR_ALPHA: lambda h: (h, full),
        TOP_ALPHA: lambda b: (intersect(b, w), b),
        TOP_OMEGA: lambda b: (zero, b),
    }
    assert space.strongs
    for st in space.strongs:
        closure = {g for l in st.line_ids for g in space.lines[l].closure_gids}
        assert closure == set(gids(*bounds[st.kind](st.generator)))
        assert st.point_pids == {space.pid_of_gid[g] for g in closure if g in space.pid_of_gid}
        # a listed strong subspace is a plane or larger and holds lines, so
        # its lines' closures can cover it
        assert st.p_dim >= 2 and st.line_ids


@pytest.mark.parametrize("w_side", ["tail", "head"])
@pytest.mark.parametrize("params", PER_LINE_CONFIGS)
def test_plane_closures_and_pencils_match_the_per_plane_path(params, w_side):
    # a plane's closure is the union of its lines' closures; here each plane
    # is listed again by `enumerate_between` between its bounds, and each
    # pencil (two or more of its lines through one point) found point by point
    space = build_spine(_params(params, w_side))
    k = space.params.k
    assert space.planes()
    expected = {}
    for plane in space.planes():
        assert list(plane.line_ids) == sorted(set(plane.line_ids))
        closure = {space.gid_of[subspace_key(u)]
                   for u in enumerate_between(plane.low, plane.high, k)}
        assert len(plane.closure_gids) == len(closure)
        assert set(plane.closure_gids) == closure
        assert set(plane.improper_gids) == {g for g in closure if g not in space.pid_of_gid}
        for g in closure:
            through = tuple(l for l in plane.line_ids if g in space.lines[l].closure_gids)
            if len(through) >= 2:
                expected[(plane.id, g)] = (g in space.pid_of_gid, through)
    pencils = {(p.plane_id, p.vertex_gid): (p.proper, p.line_ids) for p in space.pencils()}
    assert len(pencils) == len(space.pencils())
    assert pencils == expected


def _count_intervals(monkeypatch, counts):
    """Count `Interval` constructions into counts["Interval"]."""
    counts["Interval"] = 0
    original = gf.Interval.__init__

    def counted(self, *args):
        counts["Interval"] += 1
        original(self, *args)

    monkeypatch.setattr(gf.Interval, "__init__", counted)


@pytest.mark.parametrize("params", [(2, 6, 2, 1, 3), (3, 4, 2, 1, 3), (2, 5, 2, 0, 2)])
def test_the_build_meets_each_span_with_w_once(monkeypatch, params):
    # a top's closure comes from its lines, so every meet with W the build
    # takes is a line span's, alpha tops ((2,5,2,0,2)) included
    counts = count_calls(monkeypatch, ["intersect"])
    space = build_spine(standard_params(*params))
    spans = {ln.b.rows for ln in space.lines}
    assert counts["intersect"] == len(spans) < len(space.lines)


@pytest.mark.parametrize("params", [(2, 6, 2, 1, 3), (3, 5, 2, 1, 2)])
def test_the_build_lists_each_pencil_base_from_one_interval(monkeypatch, params):
    # the lines over one pencil base H take their candidates, closures and
    # meets with W from one interval, so the build constructs one interval per
    # pencil base (besides the three that list the k-, (k-1)- and
    # (k+1)-subspaces), and sums each (H, B /\ W) of an affine line once; a
    # strong subspace's closure comes from its lines and costs neither
    counts = count_calls(monkeypatch, ["subspace_sum"])
    _count_intervals(monkeypatch, counts)
    space = build_spine(standard_params(*params))
    built = dict(counts)
    monkeypatch.undo()
    m, w = space.params.m, space.params.w
    lows = enumerate_subspaces(space.params.space, space.params.k - 1)
    bases = [h for h in lows if dim_intersect(h, w) in (m - 1, m)]
    affine_sums = {(ln.h.rows, intersect(ln.b, w).rows)
                   for ln in space.lines if ln.kind == LINE_AFFINE}
    assert built["Interval"] == len(bases) + 3 < len(space.lines)
    assert built["subspace_sum"] == len(affine_sums)


@pytest.mark.parametrize("params, extends", [((2, 6, 2, 1, 3), 1515), ((3, 5, 2, 1, 2), 2812)])
def test_the_build_reads_each_line_off_its_lift(monkeypatch, params, extends):
    # a line's closure points are H plus each nonzero combination of its lift
    # (u, v), so the build eliminates nothing per line: its only echelon
    # extensions are those of its intervals' complements and of their meets
    # with W
    lanes = gf._lanes(*params[:2])
    original, callers = lanes.extend, Counter()

    def counted(echelon, v):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension: its function
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return original(echelon, v)

    monkeypatch.setattr(lanes, "extend", counted)
    build_spine(standard_params(*params))
    monkeypatch.undo()
    assert set(callers) == {"__init__", "lifts_with_meet_dims"}
    assert sum(callers.values()) == extends


@pytest.mark.parametrize("params", [(2, 6, 2, 1, 3), (3, 5, 2, 1, 2)])
def test_planes_construct_no_interval_per_plane(monkeypatch, params):
    # a plane's closure comes from its lines, so the only intervals `planes()`
    # constructs are those of its `enumerate_between` calls: the Y above each
    # line span b and the Z below each pencil base h
    space = build_spine(standard_params(*params))
    counts = count_calls(monkeypatch, ["enumerate_between"])
    _count_intervals(monkeypatch, counts)
    assert space.planes()
    built = dict(counts)
    monkeypatch.undo()
    spans = {ln.b.rows for ln in space.lines}
    bases = {ln.h.rows for ln in space.lines}
    assert built["Interval"] == built["enumerate_between"] == len(spans) + len(bases)
