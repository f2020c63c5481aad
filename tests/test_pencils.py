import itertools

import pytest

from spinegeo import build_spine, standard_params
from spinegeo.cliques import family_K
from spinegeo.pencils import (
    RhoCliqueIndex,
    clique_dimension,
    derive_line_geometry,
    family_B,
    family_P,
    p_pi,
    p_rho,
    pencil_coplanar,
    verify_pencils,
)
from spinegeo.relations import bits_of, compute_pi, compute_rho, strip
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


def test_p_rho_fast_path_matches_literal(cfg1_space, cfg1_rho):
    import random

    index = RhoCliqueIndex.build(cfg1_rho)
    rng = random.Random(3)
    pencils = cfg1_space.pencils()
    for _ in range(25):
        p = rng.choice(pencils)
        tri = sorted(p.line_ids)[:3]
        if len(tri) < 3:
            continue
        assert p_rho(*tri, cfg1_rho, index) == p_rho(*tri, cfg1_rho, None)
    for _ in range(25):
        tri = rng.sample(range(cfg1_rho.count), 3)
        assert p_rho(*tri, cfg1_rho, index) == p_rho(*tri, cfg1_rho, None)


# ---------- the pencil family -------------------------------------------------------

def test_family_P_pencils_are_closed_and_maximal(cfg1_pi, cfg1_rho):
    fp = family_P(cfg1_pi)
    assert not verify_pencils(fp, cfg1_pi)
    fr = family_P(cfg1_rho)
    assert not verify_pencils(fr, cfg1_rho)


def test_family_P_clique_lookup_matches_literal_p_pi(cfg1_pi):
    # reference: close every related pair with the literal predicate
    rows = cfg1_pi.rows
    literal = set()
    for i in range(cfg1_pi.count):
        for j in bits_of(rows[i] >> (i + 1) << (i + 1)):
            mask = (1 << i) | (1 << j)
            for k in bits_of(rows[i] & rows[j]):
                if p_pi(k, i, j, cfg1_pi):
                    mask |= 1 << k
            if mask.bit_count() >= 3:
                literal.add(mask)
    fast = family_P(cfg1_pi, family_K(cfg1_pi))
    assert set(fast.masks) == literal
    assert len(fast.masks) == len(literal)


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


def test_pipeline_is_strip_invariant(cfg1_pi):
    plain = derive_line_geometry(cfg1_pi)
    sr = strip(cfg1_pi, seed=21)
    stripped = derive_line_geometry(sr.graph)
    inv = [0] * len(sr.perm)
    for orig, new in enumerate(sr.perm):
        inv[new] = orig
    back = {
        frozenset(inv[l] for l in bits_of(stripped.cliques.masks[ci]))
        for ci in stripped.bundle_cliques
    }
    plain_sets = {
        frozenset(bits_of(plain.cliques.masks[ci])) for ci in plain.bundle_cliques
    }
    assert back == plain_sets