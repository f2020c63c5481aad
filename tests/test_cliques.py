import itertools

import pytest

from spinegeo.cliques import (
    KIND_AFFINE_SEMIFLAT,
    KIND_FLAT,
    KIND_PROJECTIVE_FLAT,
    KIND_PUNCTURED_SEMIFLAT,
    KIND_SEMIBUNDLE_IMPROPER,
    KIND_SEMIBUNDLE_PROPER,
    KIND_UNCLASSIFIED,
    bron_kerbosch,
    classify_clique,
    delta_n,
    family_K,
    geometric_families,
    podmianka,
)
from spinegeo.relations import bits_of
from spinegeo.spine import (LINE_AFFINE, PLANE_AFFINE, PLANE_PROJECTIVE, PLANE_PUNCTURED,
                            build_spine, standard_params)

from oracles import plane_hosts, span_clique


def pencil_triple(space, proper=True, size=3):
    # use a pencil whose base plane extends into a >= 3-dimensional strong
    # subspace; only there does a line off the plane witness non-spanning
    hosts = plane_hosts(space)
    for p in space.pencils():
        if p.proper != proper or len(p.line_ids) < size:
            continue
        host = hosts[p.plane_id]
        if host is not None and host.p_dim >= 3:
            return tuple(sorted(p.line_ids))[:size]
    raise AssertionError("no such pencil")


def tripod_triple(space):
    # three lines through one point of a >= 3-dimensional strong subspace,
    # not all on a plane: members of a semibundle with three distinct spans
    for (sid, gid), lines in space.semibundles(min_p_dim=3).items():
        if gid not in space.pid_of_gid:
            continue
        by_b = {}
        for lid in sorted(lines):
            by_b.setdefault(space.lines[lid].b.rows, lid)
        if len(by_b) >= 3:
            return tuple(sorted(by_b.values())[:3]), sid, gid
    raise AssertionError("no tripod found")


# ---------- the spanning predicate ------------------------------------------------

def test_pencil_triples_do_not_span(cfg1_space, cfg1_pi):
    assert not delta_n(pencil_triple(cfg1_space), cfg1_pi)


def test_tripods_span(cfg1_space, cfg1_pi):
    tri, _, _ = tripod_triple(cfg1_space)
    assert delta_n(tri, cfg1_pi)


def test_pairs_never_span_under_the_pencil_gate(cfg3_pi):
    # the binary instance is empty when every plane extends into a
    # >= 3-dimensional strong subspace (cfg3); elsewhere a pair on a plane
    # that is itself maximal can have a clique neighbourhood
    checked = 0
    for i in range(0, cfg3_pi.count, 397):
        for j in bits_of(cfg3_pi.rows[i]):
            assert not delta_n((i, j), cfg3_pi)
            checked += 1
            break
    assert checked


def test_some_pairs_span_without_the_pencil_gate(cfg1_space, cfg1_pi):
    # two lines of a plane that is a maximal strong subspace: the common
    # neighbourhood is the rest of that plane, which is a clique
    hosts = plane_hosts(cfg1_space)
    plane = next(
        p for p in cfg1_space.planes()
        if p.side == "star" and hosts[p.id] is not None and hosts[p.id].p_dim == 2
    )
    a, b = plane.line_ids[:2]
    assert cfg1_pi.adjacent(a, b)
    assert delta_n((a, b), cfg1_pi)


def test_duplicates_do_not_span(cfg1_pi):
    i = next(iter(bits_of(cfg1_pi.rows[0])))
    assert not delta_n((0, 0, i), cfg1_pi)


def test_four_lines_can_span(cfg1_space, cfg1_pi):
    # the general-arity form: a tripod extended by a fourth semibundle line
    tri, sid, gid = tripod_triple(cfg1_space)
    lines = sorted(space_lines(cfg1_space, sid, gid))
    extra = next(l for l in lines if l not in tri)
    assert delta_n(tri + (extra,), cfg1_pi)


def space_lines(space, sid, gid):
    return [
        lid for lid in space.strongs[sid].line_ids
        if gid in space.lines[lid].closure_gids
    ]


# ---------- spans --------------------------------------------------------------------

def test_tripod_spans_its_semibundle(cfg1_space, cfg1_pi):
    tri, sid, gid = tripod_triple(cfg1_space)
    expected = frozenset(space_lines(cfg1_space, sid, gid))
    assert span_clique(*tri, cfg1_pi) == expected


def test_triangle_spans_its_flat(cfg1_space, cfg1_pi, cfg1_fams):
    plane = next(p for p in cfg1_space.planes() if p.kind == PLANE_PROJECTIVE)
    # three lines of the plane with no common point form a triangle
    tri = None
    for cand in itertools.combinations(plane.line_ids, 3):
        closures = [set(cfg1_space.lines[l].closure_gids) for l in cand]
        if not set.intersection(*closures):
            tri = cand
            break
    assert tri is not None
    assert span_clique(*tri, cfg1_pi) == frozenset(plane.line_ids)


def test_span_requires_a_spanning_triple(cfg1_space, cfg1_pi):
    with pytest.raises(ValueError):
        span_clique(*pencil_triple(cfg1_space), cfg1_pi)


def test_span_is_generator_independent(cfg1_pi):
    fam = family_K(cfg1_pi)
    for mem in fam.members[::200]:
        spans = set()
        hits = 0
        for tri in itertools.combinations(mem, 3):
            if delta_n(tri, cfg1_pi):
                spans.add(span_clique(*tri, cfg1_pi))
                hits += 1
                if hits == 5:
                    break
        assert spans == {frozenset(mem)}


# ---------- families against the oracle ------------------------------------------------

def test_family_K_equals_bron_kerbosch_pi(cfg1_pi, cfg1_fams):
    spanned = set(family_K(cfg1_pi).members)
    oracle = set(bron_kerbosch(cfg1_pi))
    assert spanned == oracle == cfg1_fams.pi_family


def test_family_K_equals_bron_kerbosch_rho(cfg1_rho, cfg1_fams):
    # over GF(2) even the affine semiflats are spanned: their single triple
    # has an empty common neighbourhood, which is vacuously a clique
    spanned = set(family_K(cfg1_rho).members)
    oracle = set(bron_kerbosch(cfg1_rho))
    assert spanned == oracle == cfg1_fams.rho_family


def test_bron_kerbosch_cap(monkeypatch):
    import spinegeo.cliques
    from spinegeo.relations import LineRelationGraph

    monkeypatch.setattr(spinegeo.cliques, "BK_MAX_LINES", 5)
    g = LineRelationGraph("pi", [0] * 10)
    with pytest.raises(ValueError):
        bron_kerbosch(g)


# ---------- exchange and classification ---------------------------------------------

def test_exchange_flags_by_kind(cfg1_rho, cfg1_fams):
    flags = {}
    for mem in bron_kerbosch(cfg1_rho):
        kind, _ = classify_clique(mem, cfg1_fams)
        flags.setdefault(kind, set()).add(podmianka(mem, cfg1_rho))
    assert flags[KIND_PROJECTIVE_FLAT] == {False}
    assert flags[KIND_SEMIBUNDLE_PROPER] == {False}
    assert flags[KIND_PUNCTURED_SEMIFLAT] == {True}
    # over GF(2) a direction selector has three lines; removing one leaves a
    # crossing pair whose only completion is the removed line itself, so the
    # affine semiflats fail the exchange here
    assert flags[KIND_AFFINE_SEMIFLAT] == {False}


def test_podmianka_rejects_non_maximal_input(cfg1_rho):
    mem = bron_kerbosch(cfg1_rho)[0]
    with pytest.raises(ValueError):
        podmianka(mem[1:], cfg1_rho)  # without its smallest line


def test_every_maximal_clique_classifies(cfg1_pi, cfg1_rho, cfg1_fams):
    for graph, expect in ((cfg1_pi, {KIND_PROJECTIVE_FLAT, KIND_FLAT,
                                     KIND_SEMIBUNDLE_PROPER, KIND_SEMIBUNDLE_IMPROPER}),
                          (cfg1_rho, {KIND_PROJECTIVE_FLAT, KIND_PUNCTURED_SEMIFLAT,
                                      KIND_AFFINE_SEMIFLAT, KIND_SEMIBUNDLE_PROPER})):
        kinds = set()
        for mem in bron_kerbosch(graph):
            kind, witness = classify_clique(mem, cfg1_fams)
            assert kind != KIND_UNCLASSIFIED
            kinds.add(kind)
        assert kinds == expect


def test_affine_semiflat_is_a_direction_selector(cfg1_space, cfg1_fams):
    lines = next(iter(
        s for s in cfg1_fams.rho_family
        if classify_clique(s, cfg1_fams)[0] == KIND_AFFINE_SEMIFLAT
    ))
    kind, pid = classify_clique(lines, cfg1_fams)
    plane = cfg1_space.planes()[pid]
    assert plane.kind == PLANE_AFFINE
    directions = [cfg1_space.lines[l].improper_gid for l in lines]
    assert len(set(directions)) == len(lines)
    all_directions = {cfg1_space.lines[l].improper_gid for l in plane.line_ids}
    assert set(directions) == all_directions


# ---------- the kind table ----------------------------------------------------------------

@pytest.fixture(scope="module")
def twin_fams(twin_space):
    return geometric_families(twin_space)


KIND_CENSUS = [  # flats, semiflats and semibundles of pi and rho together
    ("cfg1", {KIND_PROJECTIVE_FLAT: 504, KIND_FLAT: 735, KIND_PUNCTURED_SEMIFLAT: 2058,
              KIND_AFFINE_SEMIFLAT: 196, KIND_SEMIBUNDLE_PROPER: 196,
              KIND_SEMIBUNDLE_IMPROPER: 21}),
    ("twin", {KIND_PROJECTIVE_FLAT: 27, KIND_FLAT: 52, KIND_PUNCTURED_SEMIFLAT: 156,
              KIND_AFFINE_SEMIFLAT: 1053}),
]


@pytest.mark.parametrize("name, census", KIND_CENSUS)
def test_kind_census(request, name, census):
    fams = request.getfixturevalue(f"{name}_fams")
    got = {}
    for lines in fams.pi_family | fams.rho_family:
        kind, _ = classify_clique(lines, fams)
        got[kind] = got.get(kind, 0) + 1
    assert got == census


@pytest.mark.parametrize("name", ["cfg1", "twin"])
def test_each_kind_holds_of_its_witness(request, name):
    space = request.getfixturevalue(f"{name}_space")
    fams = request.getfixturevalue(f"{name}_fams")
    planes = space.planes()
    for lines, (kind, witness) in fams.kind_of.items():
        # the lookup takes the members in any order
        assert classify_clique(lines[::-1], fams) == classify_clique(lines, fams) == (kind, witness)
        if kind in (KIND_SEMIBUNDLE_PROPER, KIND_SEMIBUNDLE_IMPROPER):
            assert space.semibundle_at(lines) == witness
            assert (witness[1] in space.pid_of_gid) == (kind == KIND_SEMIBUNDLE_PROPER)
            continue
        plane = planes[witness]
        if kind in (KIND_PROJECTIVE_FLAT, KIND_FLAT):
            assert lines == plane.line_ids
            assert (plane.kind == PLANE_PROJECTIVE) == (kind == KIND_PROJECTIVE_FLAT)
        elif kind == KIND_PUNCTURED_SEMIFLAT:
            assert plane.kind == PLANE_PUNCTURED
            projective = {l for l in plane.line_ids if space.lines[l].kind != LINE_AFFINE}
            (extra,) = set(lines) - projective
            assert projective <= set(lines) and extra in plane.line_ids
            assert space.lines[extra].kind == LINE_AFFINE
        else:
            assert kind == KIND_AFFINE_SEMIFLAT and plane.kind == PLANE_AFFINE
            assert set(lines) <= set(plane.line_ids)
            directions = sorted(space.lines[l].improper_gid for l in lines)
            assert directions == sorted({space.lines[l].improper_gid for l in plane.line_ids})


# ---------- one line-set format -------------------------------------------------------

def _is_id_tuple(lines) -> bool:
    """A strictly ascending tuple of int line ids."""
    return (type(lines) is tuple and all(type(l) is int for l in lines)
            and all(a < b for a, b in zip(lines, lines[1:])))


@pytest.mark.parametrize("source", ["cfg1_space", "cex_space", "twin_space", (2, 5, 2, 1, 3)],
                         ids=str)
def test_every_geometric_line_set_is_a_sorted_id_tuple(request, source):
    space = (request.getfixturevalue(source) if isinstance(source, str)
             else build_spine(standard_params(*source)))
    fams = geometric_families(space)
    assert fams.kind_of and space.pencils()
    for family in ([p.line_ids for p in space.pencils()],
                   space.semibundles(min_p_dim=2).values(),
                   fams.kind_of, fams.pi_family, fams.rho_family):
        bad = [lines for lines in family if not _is_id_tuple(lines)]
        assert not bad, bad[:3]


def test_rho_outside_pencils_are_sorted_id_tuples(cfg1_ws):
    outside, report = cfg1_ws.rho_outside()
    assert outside and report["count"] == len(outside)
    assert all(_is_id_tuple(lines) for lines in outside)
