import itertools

import pytest

from spinegeo import build_spine, standard_params
from spinegeo.cliques import LineSetFamily, _mask_is_clique, family_K
from spinegeo.pencils import (
    clique_dimension,
    derive_line_geometry,
    detect_parallel,
    family_B,
    family_P,
    p_pi,
    p_rho,
)
from spinegeo.relations import PI, LineRelationGraph, bits_of, compute_pi, compute_rho, strip
from spinegeo.spine import PLANE_AFFINE, PLANE_PROJECTIVE, PLANE_PUNCTURED, STAR_ALPHA

from oracles import literal_p_rho, pencil_coplanar, plane_hosts, verify_pencils


def hosted_pencils(space, kind=None, proper=True):
    """Pencils whose base plane extends into a >= 3-dimensional strong subspace."""
    planes, hosts = space.planes(), plane_hosts(space)
    for p in space.pencils():
        if p.proper != proper:
            continue
        plane = planes[p.plane_id]
        if kind is not None and plane.kind != kind:
            continue
        host = hosts[p.plane_id]
        if host is not None and host.p_dim >= 3:
            yield p, plane


def mask_of(ids):
    """The bitmask of a set of line ids."""
    m = 0
    for l in ids:
        m |= 1 << l
    return m


def pencils_of(graph):
    """The pencils `family_P` recovers from the graph's spanned cliques."""
    return family_P(graph, family_K(graph))


# ---------- the ternary predicates -----------------------------------------------

def test_p_pi_on_concurrent_coplanar_triples(cfg1_space, cfg1_pi):
    p, _ = next(hosted_pencils(cfg1_space))
    tri = sorted(p.line_ids)[:3]
    assert p_pi(*tri, cfg1_pi)


def test_p_pi_rejects_tripods(cfg1_space, cfg1_pi):
    from test_cliques import tripod_triple

    tri, _, _ = tripod_triple(cfg1_space)
    assert not p_pi(*tri, cfg1_pi)


def test_p_pi_on_mutually_parallel_triples_over_gf3():
    # a parallel pencil with three lines needs q >= 3; take a configuration
    # with affine planes inside 3-dimensional stars
    space = build_spine(standard_params(3, 5, 2, 1, 3))
    pi = compute_pi(space)
    planes = space.planes()
    found = None
    for p in space.pencils():
        if not p.proper and len(p.line_ids) >= 3 and \
                planes[p.plane_id].kind == PLANE_AFFINE:
            found = p
            break
    assert found is not None
    tri = sorted(found.line_ids)[:3]
    assert p_pi(*tri, pi)


def test_p_rho_via_triangle_witness_on_projective_plane(cfg3_space, cfg3_rho):
    p, _ = next(hosted_pencils(cfg3_space, kind=PLANE_PROJECTIVE))
    tri = sorted(p.line_ids)
    assert literal_p_rho(*tri, cfg3_rho)


def test_p_rho_via_tripod_witness_on_punctured_plane(cfg3_space, cfg3_rho):
    p, _ = next(hosted_pencils(cfg3_space, kind=PLANE_PUNCTURED))
    tri = sorted(p.line_ids)
    assert literal_p_rho(*tri, cfg3_rho)


def test_p_rho_rejects_parallel_triples(cfg3_space, cfg3_rho):
    p, _ = next(hosted_pencils(cfg3_space, kind=PLANE_PUNCTURED, proper=False))
    tri = sorted(p.line_ids)[:3]
    assert not literal_p_rho(*tri, cfg3_rho)


def parent_p_rho(l1, l2, l3, graph, fam):
    """Reference: the indexed `p_rho` before the lookup rewrite.

    Spanning is decided by a full clique test of the common neighbourhood,
    the witness by intersecting the clique sets of the three lines.
    """
    rows = graph.rows
    if len({l1, l2, l3}) != 3:
        return False
    if not (rows[l1] >> l2 & 1 and rows[l1] >> l3 & 1 and rows[l2] >> l3 & 1):
        return False
    if _mask_is_clique(rows[l1] & rows[l2] & rows[l3], rows):
        return False
    hits = set(fam.by_line[l1]) & set(fam.by_line[l2]) & set(fam.by_line[l3])
    return any(not fam.exchange[c] for c in hits)


def test_p_rho_fast_path_matches_literal(cfg1_space, cfg1_rho, cex_space, cex_rho):
    import random

    for space, rho in ((cfg1_space, cfg1_rho), (cex_space, cex_rho)):
        fam = family_K(rho)
        rng = random.Random(3)
        pencils = space.pencils()
        for _ in range(25):
            p = rng.choice(pencils)
            tri = sorted(p.line_ids)[:3]
            if len(tri) < 3:
                continue
            assert p_rho(*tri, rho, fam) == literal_p_rho(*tri, rho)
        for _ in range(25):
            tri = rng.sample(range(rho.count), 3)
            assert p_rho(*tri, rho, fam) == literal_p_rho(*tri, rho)
        # inside cliques, where the lookups decide: against the parent's index path
        for mem in rng.sample(fam.members, 40):
            for tri in itertools.islice(itertools.combinations(mem, 3), 30):
                assert p_rho(*tri, rho, fam) == parent_p_rho(*tri, rho, fam)


# ---------- the pencil family -------------------------------------------------------

def test_family_P_pencils_are_closed_and_maximal(cfg1_pi, cfg1_rho):
    for graph in (cfg1_pi, cfg1_rho):
        fam = family_K(graph)
        assert not verify_pencils(family_P(graph, fam), graph, fam)


def pairwise_closure(graph, test):
    """Reference: the parent's `family_P`, closing pair by pair with `test`.

    Covered pairs are kept as a set of tuples and each third line k of a
    pair (i, j) is tested with ``test(k, i, j)``.
    """
    rows = graph.rows
    covered = set()
    found = set()
    for i in range(graph.count):
        for j in bits_of(rows[i] >> (i + 1) << (i + 1)):
            if (i, j) in covered:
                continue
            mask = (1 << i) | (1 << j)
            for k in bits_of(rows[i] & rows[j]):
                if test(k, i, j):
                    mask |= 1 << k
            if mask.bit_count() < 3:
                continue
            found.add(mask)
            covered.update(itertools.combinations(bits_of(mask), 2))
    return sorted(found, key=lambda m: tuple(bits_of(m)))


def test_family_P_clique_lookup_matches_literal_p_pi(cfg1_pi, cex_pi):
    # reference: close every related pair with the literal predicate
    twin_pi = compute_pi(build_spine(standard_params(3, 4, 2, 1, 3)))
    for pi in (cfg1_pi, cex_pi, twin_pi):
        rows = pi.rows
        literal = set()
        for i in range(pi.count):
            for j in bits_of(rows[i] >> (i + 1) << (i + 1)):
                mask = (1 << i) | (1 << j)
                for k in bits_of(rows[i] & rows[j]):
                    if p_pi(k, i, j, pi):
                        mask |= 1 << k
                if mask.bit_count() >= 3:
                    literal.add(mask)
        fast = family_P(pi, family_K(pi))
        assert set(fast.members) == {tuple(bits_of(m)) for m in literal}
        assert len(fast.members) == len(literal)
    assert len(pencils_of(cfg1_pi).members) == 7448


def test_family_P_rho_matches_pairwise_p_rho_closure(cfg1_rho, cex_rho):
    for rho in (cfg1_rho, cex_rho):
        fam = family_K(rho)
        reference = pairwise_closure(
            rho, lambda k, i, j: parent_p_rho(k, i, j, rho, fam))
        assert reference
        reference = [tuple(bits_of(m)) for m in reference]
        assert family_P(rho, fam).members == reference


def test_family_P_partial_linear(cfg1_pi):
    fp = pencils_of(cfg1_pi)
    by_line = fp.by_line
    for idx, mem in enumerate(fp.members):
        for other in {j for l in mem for j in by_line[l]}:
            if other > idx:
                assert len(set(fp.members[other]) & set(mem)) <= 1


def test_rho_pencils_are_pi_pencils(cfg1_pi, cfg1_rho):
    pi_sets = {frozenset(m) for m in pencils_of(cfg1_pi).members}
    rho_sets = {frozenset(m) for m in pencils_of(cfg1_rho).members}
    assert rho_sets <= pi_sets


def test_recovered_pencils_match_hosted_geometry(cfg1_space, cfg1_pi):
    # over this configuration the recoverable pencils are exactly those whose
    # base plane lies inside a 4-dimensional star
    fp = pencils_of(cfg1_pi)
    recovered = set(fp.members)
    expected = {p.line_ids for p, _ in hosted_pencils(cfg1_space, proper=True)}
    expected |= {
        p.line_ids for p, _ in hosted_pencils(cfg1_space, proper=False)
        if len(p.line_ids) >= 3
    }
    assert recovered == expected


# ---------- pencil coplanarity --------------------------------------------------------

def test_pencil_coplanarity(cfg1_space, cfg1_pi):
    fp = pencils_of(cfg1_pi)
    geo = {p.line_ids: p for p in cfg1_space.pencils()}
    by_plane = {}
    for mem in fp.members:
        p = geo[mem]
        by_plane.setdefault(p.plane_id, []).append((mem, p))
    plane_id, group = next((k, v) for k, v in by_plane.items() if len(v) >= 2)
    (m1, p1), (m2, p2) = group[:2]
    assert p1.vertex_gid != p2.vertex_gid
    assert pencil_coplanar(m1, m2, cfg1_pi)   # same base plane
    assert pencil_coplanar(m1, m1, cfg1_pi)   # reflexive
    # two pencils on different planes through a common line need not be
    other = None
    shared = set(m1)
    for mem in fp.members:
        p = geo[mem]
        if p.plane_id != plane_id and shared & set(mem) \
                and not pencil_coplanar(m1, mem, cfg1_pi):
            other = mem
            break
    assert other is not None


# ---------- dimension and the semibundle filter ------------------------------------------

def test_clique_dimensions(cfg1_space, cfg1_pi):
    geometry = derive_line_geometry(cfg1_pi, family_K(cfg1_pi))
    fams = {}
    from spinegeo.cliques import classify_clique, geometric_families

    gf = geometric_families(cfg1_space)
    for ci, mem in enumerate(geometry.cliques.members):
        d = geometry.clique_dims[ci]
        if d is None:
            continue
        kind, _ = classify_clique(frozenset(mem), gf)
        fams.setdefault(kind, set()).add(d)
    assert fams["flat"] == {2} or fams.get("projective-flat") == {2}
    assert fams["semibundle-proper"] == {3}  # hosts are 4-dimensional stars


def test_clique_dimension_is_permutation_invariant(cfg1_pi):
    geometry = derive_line_geometry(cfg1_pi, family_K(cfg1_pi))
    ci = geometry.bundle_cliques[0]
    members = list(geometry.cliques.members[ci])
    inside = [geometry.pencils.members[p] for p in geometry.pencils_in_clique[ci]]
    base = clique_dimension(members, inside)
    # relabel the lines arbitrarily: shift every id by a constant
    shift = 7
    members2 = [l + shift for l in members]
    inside2 = [tuple(l + shift for l in m) for m in inside]
    assert clique_dimension(members2, inside2) == base


def test_clique_dimension_needs_a_pencil():
    with pytest.raises(ValueError):
        clique_dimension([0, 1, 2], [])


def test_family_B_is_the_proper_semibundles(cfg1_space, cfg1_pi, cfg1_rho):
    expected = {
        lines for (sid, gid), lines in cfg1_space.semibundles(min_p_dim=3).items()
        if gid in cfg1_space.pid_of_gid
    }
    for graph in (cfg1_pi, cfg1_rho):
        geometry = derive_line_geometry(graph, family_K(graph))
        got = set(family_B(geometry))
        assert got == expected


def test_parallel_detection_removes_improper_vertices_only(cfg1_space, cfg1_pi):
    geometry = derive_line_geometry(cfg1_pi, family_K(cfg1_pi))
    geo = {p.line_ids: p for p in cfg1_space.pencils()}
    for idx, mem in enumerate(geometry.pencils.members):
        pencil = geo[mem]
        assert (idx in geometry.parallel_pencils) == (not pencil.proper)


def parent_pencils_in_clique(cliques, pencils):
    """Reference: scan every pencil through every line of every clique."""
    pencil_masks = [mask_of(mem) for mem in pencils.members]
    out = []
    for mem in cliques.members:
        mask = mask_of(mem)
        seen = set()
        for l in bits_of(mask):
            for pi_idx in pencils.by_line[l]:
                if not pencil_masks[pi_idx] & ~mask:
                    seen.add(pi_idx)
        out.append(sorted(seen))
    return out


def test_pencils_in_clique_matches_per_clique_scan(cfg1_pi, cfg1_rho, cex_rho):
    for graph in (cfg1_pi, cfg1_rho, cex_rho):
        geometry = derive_line_geometry(graph, family_K(graph))
        assert any(geometry.pencils_in_clique)
        assert geometry.pencils_in_clique == parent_pencils_in_clique(
            geometry.cliques, geometry.pencils)


def parent_affine_planes(pencils, cliques, pencils_in_clique, clique_dims):
    """Reference: the planes `detect_parallel` calls affine, with pair sets."""
    pencil_masks = [mask_of(mem) for mem in pencils.members]
    out = set()
    for ci, d in enumerate(clique_dims):
        if d != 2:
            continue
        inside = pencils_in_clique[ci]
        if any(not pencil_masks[a] & pencil_masks[b]
               for a, b in itertools.combinations(inside, 2)):
            out.add(ci)
            continue
        seen = set()
        for pi_idx in inside:
            seen.update(itertools.combinations(bits_of(pencil_masks[pi_idx]), 2))
        if any(pair not in seen for pair in itertools.combinations(cliques.members[ci], 2)):
            out.add(ci)
    return out


def parent_detect_parallel(pencils, cliques, pencils_in_clique, clique_dims):
    """Reference: the parent's `detect_parallel`, built on the pair-set planes."""
    affine = parent_affine_planes(pencils, cliques, pencils_in_clique, clique_dims)
    pencil_masks = [mask_of(mem) for mem in pencils.members]
    planes_of = {}
    for ci, d in enumerate(clique_dims):
        if d == 2:
            for pi_idx in pencils_in_clique[ci]:
                planes_of.setdefault(pi_idx, []).append(ci)
    line_on_affine = set()
    for pi_idx, planes in planes_of.items():
        if any(ci in affine for ci in planes):
            line_on_affine.update(bits_of(pencil_masks[pi_idx]))
    parallel = set()
    for ci, d in enumerate(clique_dims):
        if d == 2:
            for a, b in itertools.combinations(pencils_in_clique[ci], 2):
                if not pencil_masks[a] & pencil_masks[b]:
                    parallel.update((a, b))
    for pi_idx, planes in planes_of.items():
        if pi_idx not in parallel and not any(ci in affine for ci in planes) and \
                all(l in line_on_affine for l in bits_of(pencil_masks[pi_idx])):
            parallel.add(pi_idx)
    return parallel


def test_detect_parallel_matches_pair_set_version(cfg1_pi):
    # each config exercises one rule that makes a plane affine.  Over GF(2)
    # (cfg1) a parallel pencil has two lines and is never recovered, so no
    # two pencils of a plane are disjoint: a related pair that no recovered
    # pencil holds marks every affine plane.  On the GF(3) twin the parallel
    # pencils have three lines, and the disjoint pairs find them all
    twin_pi = compute_pi(build_spine(standard_params(3, 5, 2, 1, 3)))
    for pi, planes, disjoint, count in ((cfg1_pi, 1085, 0, 588), (twin_pi, 1040, 624, 208)):
        g = derive_line_geometry(pi, family_K(pi))
        args = (g.pencils, g.cliques, g.pencils_in_clique, g.clique_dims)
        plane_cliques = [ci for ci, d in enumerate(g.clique_dims) if d == 2]
        assert len(plane_cliques) == planes
        assert sum(not set(g.pencils.members[a]) & set(g.pencils.members[b])
                   for ci in plane_cliques
                   for a, b in itertools.combinations(g.pencils_in_clique[ci], 2)) == disjoint
        assert parent_affine_planes(*args)
        want = parent_detect_parallel(*args)
        assert len(want) == count
        assert detect_parallel(g.pencils, pi, *args[1:]) == want


def test_detect_parallel_marks_the_affine_planes_of_both_rules():
    # three hand-built planes.  A (lines 0-3) has the six pairs of its lines
    # as pencils: every related pair is covered, and three pairs of pencils
    # are disjoint, so A is affine by the first rule only.  B (lines 4-7) has
    # the meeting pencils (4,6,7) and (5,6), which leave the pair 4, 5
    # uncovered, so B is affine by the second rule only.  C (lines 0, 4, 5)
    # has one pencil, which covers it: C is not affine.  Its pencil lies on
    # C alone and each of its lines on A or B, so it is parallel, beside A's
    # six; B's pencils lie on an affine plane and stay
    on_plane = {(0, 1, 2, 3): list(itertools.combinations(range(4), 2)),
                (4, 5, 6, 7): [(4, 6, 7), (5, 6)],
                (0, 4, 5): [(0, 4, 5)]}
    rows = [0] * 8
    for plane in on_plane:
        for a, b in itertools.combinations(plane, 2):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    graph = LineRelationGraph(PI, rows)
    cliques = LineSetFamily(sorted(on_plane), graph.count)
    pencils = LineSetFamily(sorted(p for ps in on_plane.values() for p in ps), graph.count)
    index = pencils.members.index
    pencils_in_clique = [sorted(map(index, on_plane[c])) for c in cliques.members]
    clique_dims = [2] * len(cliques.members)
    want = {index(p) for p in on_plane[(0, 1, 2, 3)] + [(0, 4, 5)]}
    args = (pencils, cliques, pencils_in_clique, clique_dims)
    assert parent_detect_parallel(*args) == want
    assert detect_parallel(pencils, graph, *args[1:]) == want


def test_rho_pencil_recovery_over_gf3_by_plane_kind():
    # the twin (3,5,2,1,3): 4-line pencils, recovered on the stripped
    # proper-pencil relation.  With q >= 3 every proper pencil of an affine
    # plane is recovered (over GF(2) none is); the projective planes and
    # part of the punctured ones do not extend into a 3-dimensional strong
    # subspace, so their pencils stay out of reach
    space = build_spine(standard_params(3, 5, 2, 1, 3))
    sr = strip(compute_rho(space), seed=11)
    geometry = derive_line_geometry(sr.graph, family_K(sr.graph))
    assert not hasattr(geometry.pencils, "masks")
    inv, members = sr.inverse, geometry.pencils.members
    recovered = {tuple(sorted(inv[l] for l in members[i])) for i in geometry.proper_pencils}
    planes = space.planes()
    counts = {}
    for p in space.pencils():
        if p.proper:
            got, total = counts.get(planes[p.plane_id].kind, (0, 0))
            counts[planes[p.plane_id].kind] = (got + (p.line_ids in recovered), total + 1)
    assert counts == {PLANE_AFFINE: (468, 468), PLANE_PROJECTIVE: (0, 1404),
                      PLANE_PUNCTURED: (5616, 7488)}
    assert len(recovered) == 468 + 5616


def test_rho_pencil_recovery_on_the_gf3_twin_by_plane_kind(twin_space):
    """On the twin (3,4,2,1,3) the stripped proper-pencil relation gives back
    no proper pencil at all, of any plane kind, though q = 3.

    The cause is n - k = 2.  `p_rho` needs a spanned, exchange-free clique
    holding the triple.  On (3,5,2,1,3) an affine-plane pencil finds it in
    the lines through its vertex in its 3-dimensional alpha-star.  Here the
    alpha-stars have point dimension n - k = 2: each is one affine plane, and
    no strong subspace of dimension 3 or more exists.  So no clique of the
    family holds the lines of an affine-plane pencil, and no triple of them
    has a witness.
    """
    space = twin_space
    sr = strip(compute_rho(space), seed=11)
    family = family_K(sr.graph)
    geometry = derive_line_geometry(sr.graph, family)
    inv, members = sr.inverse, geometry.pencils.members
    recovered = {frozenset(inv[l] for l in members[i]) for i in geometry.proper_pencils}
    planes = space.planes()
    counts = {}
    for p in space.pencils():
        if p.proper:
            got, total = counts.get(planes[p.plane_id].kind, (0, 0))
            counts[planes[p.plane_id].kind] = (got + (p.line_ids in recovered), total + 1)
    assert counts == {PLANE_AFFINE: (0, 117), PLANE_PROJECTIVE: (0, 351),
                      PLANE_PUNCTURED: (0, 468)}
    assert not recovered
    # the cause: every alpha-star is a plane, nothing hosts a plane in 3 dimensions,
    # and the lines of an affine-plane pencil share no clique of the family
    assert {st.p_dim for st in space.strongs if st.kind == STAR_ALPHA} == {2}
    assert not list(hosted_pencils(space))
    perm, by_line = sr.perm, family.by_line
    for p in space.pencils():
        if p.proper and planes[p.plane_id].kind == PLANE_AFFINE:
            assert not set.intersection(*(set(by_line[perm[l]]) for l in p.line_ids))


def test_pipeline_is_strip_invariant(cfg1_pi):
    plain = derive_line_geometry(cfg1_pi, family_K(cfg1_pi))
    sr = strip(cfg1_pi, seed=21)
    stripped = derive_line_geometry(sr.graph, family_K(sr.graph))
    back = {frozenset(sr.inverse[l] for l in stripped.cliques.members[ci])
            for ci in stripped.bundle_cliques}
    plain_sets = {
        frozenset(plain.cliques.members[ci]) for ci in plain.bundle_cliques
    }
    assert back == plain_sets


def test_pipeline_keeps_one_object_per_line_id_and_pencil_index(cfg1_pi):
    # the memory the pipeline holds: no per-line index of the pencils until
    # something reads it, one int object per pencil index, and a strip that
    # draws on its source graph's line-id objects
    sr = strip(cfg1_pi, 11)
    geometry = derive_line_geometry(sr.graph, family_K(sr.graph))
    pencils = geometry.pencils
    assert len(pencils.members) > 257  # ints up to 256 are shared by CPython anyway
    assert "by_line" not in vars(pencils)
    want = [[] for _ in range(sr.graph.count)]
    for idx, mem in enumerate(pencils.members):
        for l in mem:
            want[l].append(idx)
    assert pencils.by_line == want
    first: dict[int, int] = {}
    for idx in itertools.chain(*geometry.pencils_in_clique, geometry.proper_pencils,
                               geometry.parallel_pencils):
        assert first.setdefault(idx, idx) is idx
    ids = cfg1_pi.ids
    assert sr.graph.ids is ids
    assert all(l is ids[l] for l in sr.perm)
    assert all(l is ids[l] for l in sr.inverse)
