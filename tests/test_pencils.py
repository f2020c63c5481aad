import itertools

import pytest

from spinegeo import build_spine, standard_params
from spinegeo.cliques import _mask_is_clique, bron_kerbosch, family_K, family_from_masks
from spinegeo.pencils import (
    RhoCliqueIndex,
    clique_dimension,
    derive_line_geometry,
    detect_parallel,
    family_B,
    family_P,
    p_pi,
    p_rho,
    pencil_coplanar,
    verify_pencils,
)
from spinegeo.relations import LineRelationGraph, bits_of, compute_pi, compute_rho, strip
from spinegeo.spine import PLANE_AFFINE, PLANE_PROJECTIVE, PLANE_PUNCTURED


def hosted_pencils(space, kind=None, proper=True):
    """Pencils whose base plane extends into a >= 3-dimensional strong subspace."""
    planes = space.planes()
    for p in space.pencils():
        if p.proper != proper:
            continue
        plane = planes[p.plane_id]
        if kind is not None and plane.kind != kind:
            continue
        if plane.side == "star":
            host = space.star_id_by_h.get(plane.low.rows)
        else:
            host = space.top_id_by_b.get(plane.high.rows)
        if host is not None and space.strongs[host].p_dim >= 3:
            yield p, plane


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
    assert p_rho(*tri, cfg3_rho, None)  # literal witness search


def test_p_rho_via_tripod_witness_on_punctured_plane(cfg3_space, cfg3_rho):
    p, _ = next(hosted_pencils(cfg3_space, kind=PLANE_PUNCTURED))
    tri = sorted(p.line_ids)
    assert p_rho(*tri, cfg3_rho, None)


def test_p_rho_rejects_parallel_triples(cfg3_space, cfg3_rho):
    p, _ = next(hosted_pencils(cfg3_space, kind=PLANE_PUNCTURED, proper=False))
    tri = sorted(p.line_ids)[:3]
    assert not p_rho(*tri, cfg3_rho, None)


def parent_p_rho(l1, l2, l3, graph, index):
    """Reference: the indexed `p_rho` before the lookup rewrite.

    Spanning is decided by a full clique test of the common neighbourhood,
    the witness by intersecting the clique lists of the three lines.
    """
    rows = graph.rows
    if len({l1, l2, l3}) != 3:
        return False
    if not (rows[l1] >> l2 & 1 and rows[l1] >> l3 & 1 and rows[l2] >> l3 & 1):
        return False
    if _mask_is_clique(rows[l1] & rows[l2] & rows[l3], rows):
        return False
    fam = index.family
    hits = set(fam.by_line[l1]) & set(fam.by_line[l2]) & set(fam.by_line[l3])
    return any(fam.certificates[c] is not None and not index.exchange[c] for c in hits)


def test_p_rho_fast_path_matches_literal(cfg1_space, cfg1_rho, cex_space, cex_rho):
    import random

    for space, rho in ((cfg1_space, cfg1_rho), (cex_space, cex_rho)):
        index = RhoCliqueIndex.build(rho)
        rng = random.Random(3)
        pencils = space.pencils()
        for _ in range(25):
            p = rng.choice(pencils)
            tri = sorted(p.line_ids)[:3]
            if len(tri) < 3:
                continue
            assert p_rho(*tri, rho, index) == p_rho(*tri, rho, None)
        for _ in range(25):
            tri = rng.sample(range(rho.count), 3)
            assert p_rho(*tri, rho, index) == p_rho(*tri, rho, None)
        # inside cliques, where the lookups decide: against the parent's index path
        for mem in rng.sample(index.family.members, 40):
            for tri in itertools.islice(itertools.combinations(mem, 3), 30):
                assert p_rho(*tri, rho, index) == parent_p_rho(*tri, rho, index)


def test_p_rho_index_needs_a_certified_clique():
    # C = {0..3} is a maximal clique that spans nothing: line 4 + t relates to
    # the three lines of C other than t, so every triple of C has two
    # unrelated common neighbours.  With C the only exchange-free clique, no
    # certified exchange-free clique holds a triple of C.
    rows = [0] * 8
    for a, b in itertools.combinations(range(4), 2):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    for t in range(4):
        for c in set(range(4)) - {t}:
            rows[4 + t] |= 1 << c
            rows[c] |= 1 << (4 + t)
    rho = LineRelationGraph("rho", rows)
    family = family_from_masks(rho, bron_kerbosch(rho))
    assert family.certificates[family.masks.index(0b1111)] is None
    index = RhoCliqueIndex(family, [m != 0b1111 for m in family.masks])
    for tri in itertools.combinations(range(4), 3):
        assert parent_p_rho(*tri, rho, index) is False
        assert p_rho(*tri, rho, index) is False
    assert family_P(rho, family, index.exchange).masks == []


# ---------- the pencil family -------------------------------------------------------

def test_family_P_pencils_are_closed_and_maximal(cfg1_pi, cfg1_rho):
    fp = family_P(cfg1_pi)
    assert not verify_pencils(fp, cfg1_pi)
    fr = family_P(cfg1_rho)
    assert not verify_pencils(fr, cfg1_rho)


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
        assert set(fast.masks) == literal
        assert len(fast.masks) == len(literal)
    assert len(family_P(cfg1_pi).masks) == 7448


def test_family_P_rho_matches_pairwise_p_rho_closure(cfg1_rho, cex_rho):
    for rho in (cfg1_rho, cex_rho):
        index = RhoCliqueIndex.build(rho)
        reference = pairwise_closure(
            rho, lambda k, i, j: parent_p_rho(k, i, j, rho, index))
        assert reference
        assert family_P(rho, index.family, index.exchange).masks == reference
        # the same pencils from every maximal clique, certified or not
        every = family_from_masks(rho, bron_kerbosch(rho))
        assert family_P(rho, every).masks == reference


def test_family_P_partial_linear(cfg1_pi):
    fp = family_P(cfg1_pi)
    by_line = fp.by_line
    for idx, mask in enumerate(fp.masks):
        for other in {j for l in bits_of(mask) for j in by_line[l]}:
            if other > idx:
                assert (fp.masks[other] & mask).bit_count() <= 1


def test_rho_pencils_are_pi_pencils(cfg1_pi, cfg1_rho):
    pi_sets = {frozenset(m) for m in family_P(cfg1_pi).members}
    rho_sets = {frozenset(m) for m in family_P(cfg1_rho).members}
    assert rho_sets <= pi_sets


def test_recovered_pencils_match_hosted_geometry(cfg1_space, cfg1_pi):
    # over this configuration the recoverable pencils are exactly those whose
    # base plane lies inside a 4-dimensional star
    fp = family_P(cfg1_pi)
    recovered = {frozenset(m) for m in fp.members}
    expected = {p.line_ids for p, _ in hosted_pencils(cfg1_space, proper=True)}
    expected |= {
        p.line_ids for p, _ in hosted_pencils(cfg1_space, proper=False)
        if len(p.line_ids) >= 3
    }
    assert recovered == expected


# ---------- pencil coplanarity --------------------------------------------------------

def test_pencil_coplanarity(cfg1_space, cfg1_pi):
    fp = family_P(cfg1_pi)
    geo = {p.line_ids: p for p in cfg1_space.pencils()}
    by_plane = {}
    for mem, mask in zip(fp.members, fp.masks):
        p = geo[frozenset(mem)]
        by_plane.setdefault(p.plane_id, []).append((mask, p))
    plane_id, group = next((k, v) for k, v in by_plane.items() if len(v) >= 2)
    (m1, p1), (m2, p2) = group[:2]
    assert p1.vertex_gid != p2.vertex_gid
    assert pencil_coplanar(m1, m2, cfg1_pi)   # same base plane
    assert pencil_coplanar(m1, m1, cfg1_pi)   # reflexive
    # two pencils on different planes through a common line need not be
    other = None
    shared = set(bits_of(m1))
    for mem, mask in zip(fp.members, fp.masks):
        p = geo[frozenset(mem)]
        if p.plane_id != plane_id and shared & set(mem) \
                and not pencil_coplanar(m1, mask, cfg1_pi):
            other = mask
            break
    assert other is not None


# ---------- dimension and the semibundle filter ------------------------------------------

def test_clique_dimensions(cfg1_space, cfg1_pi):
    geometry = derive_line_geometry(cfg1_pi)
    fams = {}
    from spinegeo.cliques import classify_clique, geometric_families

    gf = geometric_families(cfg1_space)
    for ci, mask in enumerate(geometry.cliques.masks):
        d = geometry.clique_dims[ci]
        if d is None:
            continue
        kind, _ = classify_clique(frozenset(bits_of(mask)), cfg1_space, gf)
        fams.setdefault(kind, set()).add(d)
    assert fams["flat"] == {2} or fams.get("projective-flat") == {2}
    assert fams["semibundle-proper"] == {3}  # hosts are 4-dimensional stars


def test_clique_dimension_is_permutation_invariant(cfg1_pi):
    geometry = derive_line_geometry(cfg1_pi)
    ci = geometry.bundle_cliques[0]
    members = list(bits_of(geometry.cliques.masks[ci]))
    inside = [geometry.pencils.masks[p] for p in geometry.pencils_in_clique[ci]]
    base = clique_dimension(members, inside)
    # relabel the lines arbitrarily: shift every id by a constant
    shift = 7
    members2 = [l + shift for l in members]
    inside2 = [m << shift for m in inside]
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
        geometry = derive_line_geometry(graph)
        got = {frozenset(bits_of(m)) for m in family_B(geometry)}
        assert got == expected


def test_parallel_detection_removes_improper_vertices_only(cfg1_space, cfg1_pi):
    geometry = derive_line_geometry(cfg1_pi)
    geo = {p.line_ids: p for p in cfg1_space.pencils()}
    for idx, mem in enumerate(geometry.pencils.members):
        pencil = geo[frozenset(mem)]
        assert (idx in geometry.parallel_pencils) == (not pencil.proper)


def parent_pencils_in_clique(cliques, pencils):
    """Reference: scan every pencil through every line of every clique."""
    out = []
    for mask in cliques.masks:
        seen = set()
        for l in bits_of(mask):
            for pi_idx in pencils.by_line[l]:
                if not pencils.masks[pi_idx] & ~mask:
                    seen.add(pi_idx)
        out.append(sorted(seen))
    return out


def test_pencils_in_clique_matches_per_clique_scan(cfg1_pi, cfg1_rho, cex_rho):
    for graph in (cfg1_pi, cfg1_rho, cex_rho):
        geometry = derive_line_geometry(graph)
        assert any(geometry.pencils_in_clique)
        assert geometry.pencils_in_clique == parent_pencils_in_clique(
            geometry.cliques, geometry.pencils)


def parent_affine_planes(pencils, cliques, pencils_in_clique, clique_dims):
    """Reference: the planes `detect_parallel` calls affine, with pair sets."""
    out = set()
    for ci, d in enumerate(clique_dims):
        if d != 2:
            continue
        inside = pencils_in_clique[ci]
        if any(not pencils.masks[a] & pencils.masks[b]
               for a, b in itertools.combinations(inside, 2)):
            out.add(ci)
            continue
        seen = set()
        for pi_idx in inside:
            seen.update(itertools.combinations(bits_of(pencils.masks[pi_idx]), 2))
        if any(pair not in seen for pair in itertools.combinations(cliques.members[ci], 2)):
            out.add(ci)
    return out


def parent_detect_parallel(pencils, cliques, pencils_in_clique, clique_dims):
    """Reference: the parent's `detect_parallel`, built on the pair-set planes."""
    affine = parent_affine_planes(pencils, cliques, pencils_in_clique, clique_dims)
    planes_of = {}
    for ci, d in enumerate(clique_dims):
        if d == 2:
            for pi_idx in pencils_in_clique[ci]:
                planes_of.setdefault(pi_idx, []).append(ci)
    line_on_affine = set()
    for pi_idx, planes in planes_of.items():
        if any(ci in affine for ci in planes):
            line_on_affine.update(bits_of(pencils.masks[pi_idx]))
    parallel = set()
    for ci, d in enumerate(clique_dims):
        if d == 2:
            for a, b in itertools.combinations(pencils_in_clique[ci], 2):
                if not pencils.masks[a] & pencils.masks[b]:
                    parallel.update((a, b))
    for pi_idx, planes in planes_of.items():
        if pi_idx not in parallel and not any(ci in affine for ci in planes) and \
                all(l in line_on_affine for l in bits_of(pencils.masks[pi_idx])):
            parallel.add(pi_idx)
    return parallel


def test_detect_parallel_matches_pair_set_version(cfg1_pi):
    g = derive_line_geometry(cfg1_pi)
    args = (g.pencils, g.cliques, g.pencils_in_clique, g.clique_dims)
    # cfg1 has affine planes of both kinds: with disjoint pencils and with a
    # related pair no recovered pencil holds
    assert parent_affine_planes(*args)
    want = parent_detect_parallel(*args)
    assert len(want) == 588
    assert detect_parallel(g.pencils, cfg1_pi, *args[1:]) == want


def test_pipeline_is_strip_invariant(cfg1_pi):
    plain = derive_line_geometry(cfg1_pi)
    sr = strip(cfg1_pi, seed=21)
    stripped = derive_line_geometry(sr.graph)
    back = {sr.original(stripped.cliques.masks[ci]) for ci in stripped.bundle_cliques}
    plain_sets = {
        frozenset(bits_of(plain.cliques.masks[ci])) for ci in plain.bundle_cliques
    }
    assert back == plain_sets