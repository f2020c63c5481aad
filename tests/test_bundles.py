import dataclasses
import itertools
import random

import pytest

from spinegeo import verify

from spinegeo.bundles import (
    gluing_adjacency,
    reconstruct,
    upsilon,
    upsilon_empty,
    verify_equivalence,
)
from spinegeo.cliques import family_K
from spinegeo.pencils import derive_line_geometry, family_B
from spinegeo.relations import LineRelationGraph, bits_of, strip
from spinegeo.spine import LINE_OMEGA


@pytest.fixture(scope="module")
def cfg1_geometry(cfg1_pi):
    return derive_line_geometry(cfg1_pi, family_K(cfg1_pi))


@pytest.fixture(scope="module")
def cfg1_B(cfg1_geometry):
    return family_B(cfg1_geometry)


def test_upsilon_is_reflexive_on_cliques(cfg1_B, cfg1_pi):
    for mem in cfg1_B[:20]:
        assert upsilon(mem, mem, cfg1_pi)
        assert upsilon_empty(mem, mem, cfg1_pi)


def test_upsilon_fails_across_vertices(cfg1_space, cfg1_B, cfg1_pi):
    # semibundles at different vertices in this geometry are never glued
    semib = {
        lines: key for key, lines in cfg1_space.semibundles(min_p_dim=3).items()
    }
    vertices = [semib[m][1] for m in cfg1_B]
    pairs = 0
    for i, j in itertools.combinations(range(len(cfg1_B)), 2):
        if vertices[i] != vertices[j]:
            assert not upsilon_empty(cfg1_B[i], cfg1_B[j], cfg1_pi)
            pairs += 1
        if pairs > 400:
            break
    assert pairs


def _all_pairs_adjacency(family, graph):
    adj = [set() for _ in family]
    for i, j in itertools.combinations(range(len(family)), 2):
        if upsilon_empty(family[i], family[j], graph):
            adj[i].add(j)
            adj[j].add(i)
    return adj


def test_reconstruct_matches_all_pairs_upsilon_empty(cfg1_B, cfg1_pi):
    # reference: the all-pairs gluing graph, its components in order of
    # their smallest member, and the component unions
    n = len(cfg1_B)
    adj = _all_pairs_adjacency(cfg1_B, cfg1_pi)
    assert gluing_adjacency(cfg1_B, cfg1_pi) == adj
    class_of = [-1] * n
    unions = []
    for i in range(n):
        if class_of[i] < 0:
            class_of[i] = len(unions)
            stack, union = [i], 0
            while stack:
                v = stack.pop()
                union |= cfg1_pi.mask_of(cfg1_B[v])
                for u in adj[v]:
                    if class_of[u] < 0:
                        class_of[u] = len(unions)
                        stack.append(u)
            unions.append(union)
    recon = reconstruct(cfg1_B, cfg1_pi)
    assert recon.class_of == class_of
    assert recon.points == sorted(set(unions), key=lambda m: tuple(bits_of(m)))


def test_gluing_adjacency_matches_upsilon_empty_on_random_graphs():
    # on cfg1 every pair glues through many lines or none, so small random
    # graphs exercise the two-line threshold and the one-sided cases
    rng = random.Random(5)
    for _ in range(200):
        n = 8
        rows = [0] * n
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        graph = LineRelationGraph("pi", rows)
        family = [tuple(bits_of(rng.getrandbits(n) or 1)) for _ in range(6)]
        assert gluing_adjacency(family, graph) == _all_pairs_adjacency(family, graph)


def reference_upsilon_mismatches(kinds, adjacency):
    """The earlier F^2 walk of the gluing check over every pair i < j."""
    mismatches = []
    for i in range(len(kinds)):
        for j in range(i + 1, len(kinds)):
            glued = j in adjacency[i]
            expected = kinds[i] is not None and kinds[i] == kinds[j]
            if glued != expected:
                mismatches.append({"pair": (i, j), "glued": glued,
                                   "hosts": (kinds[i], kinds[j])})
    return mismatches


def test_upsilon_structure_reports_the_pairs_of_the_all_pairs_walk(roomy_ws, monkeypatch):
    # roomy: three semibundles per point, so some pairs glue (on cfg1 none do)
    space, inv = roomy_ws.space(), roomy_ws.graph("pi").inverse
    fam = family_B(roomy_ws.geometry("pi"))
    kinds = []
    for mem in fam:
        sid, gid = space.semibundle_at(frozenset(inv[l] for l in mem))
        kinds.append(("star" if "star" in space.strongs[sid].kind else "top", gid))
    recon = roomy_ws.reconstruction("pi")
    adjacency = [set(nbrs) for nbrs in recon.adjacency]
    # drop one glued pair, and glue a later pair whose hosts differ
    i, j = next((i, j) for i in range(len(fam)) for j in sorted(adjacency[i]) if j > i)
    a, b = next((a, b) for a in range(i + 1, len(fam)) for b in range(a + 1, len(fam))
                if kinds[a] != kinds[b])
    for x, y in ((i, j), (j, i)):
        adjacency[x].discard(y)
    for x, y in ((a, b), (b, a)):
        adjacency[x].add(y)
    damaged = dataclasses.replace(recon, adjacency=adjacency)
    monkeypatch.setattr(roomy_ws, "reconstruction", lambda kind: damaged)

    report = verify.check_upsilon_structure(roomy_ws, "pi")
    reference = reference_upsilon_mismatches(kinds, adjacency)
    assert [w["pair"] for w in reference] == [(i, j), (a, b)]
    assert report["mismatch_count"] == len(reference)
    assert report["witnesses"] == reference[:5]
    assert not report["ok"]


def test_upsilon_structure_names_the_transitivity_witnesses(cfg1_ws, monkeypatch):
    # a chain of eight disjoint cliques, each glued to the next only: one
    # gluing class that is not relation-complete
    rows = [0] * 16
    for a in range(14):
        rows[a] |= 1 << (a + 2)
        rows[a + 2] |= 1 << a
    chain = reconstruct([(2 * i, 2 * i + 1) for i in range(8)], LineRelationGraph("pi", rows))
    # the unglued pairs at distance 2, each with the clique between them
    assert chain.transitivity_witnesses == [(i, i + 1, i + 2) for i in range(6)]
    assert not chain.transitive
    assert "transitivity_witnesses" not in verify.check_upsilon_structure(cfg1_ws, "pi")

    broken = dataclasses.replace(cfg1_ws.reconstruction("pi"), transitive=False,
                                 transitivity_witnesses=chain.transitivity_witnesses)
    monkeypatch.setattr(cfg1_ws, "reconstruction", lambda kind: broken)
    report = verify.check_upsilon_structure(cfg1_ws, "pi")
    assert report["transitivity_witnesses"] == chain.transitivity_witnesses[:5]
    assert not report["transitive"] and not report["ok"]


def test_reconstruction_point_count_and_transitivity(cfg1_B, cfg1_pi):
    recon = reconstruct(cfg1_B, cfg1_pi)
    assert recon.transitive
    assert len(recon.points) == 196


def test_line_membership_counts(cfg1_space, cfg1_B, cfg1_pi):
    # affine and alpha lines land in exactly one bundle per proper point;
    # omega lines lie in no high-dimensional strong subspace here, so no
    # bundle can contain them -- the incidence defect of this configuration
    recon = reconstruct(cfg1_B, cfg1_pi)
    degree = [0] * cfg1_pi.count
    for mask in recon.points:
        for l in bits_of(mask):
            degree[l] += 1
    for ln in cfg1_space.lines:
        if ln.kind == LINE_OMEGA:
            assert degree[ln.id] == 0
        else:
            assert degree[ln.id] == len(ln.proper_pids)


def test_verify_equivalence_report_on_cfg1(cfg1_space, cfg1_pi):
    sr = strip(cfg1_pi, seed=11)
    geometry = derive_line_geometry(sr.graph, family_K(sr.graph))
    fam = family_B(geometry)
    recon = reconstruct(fam, sr.graph)
    report = verify_equivalence(cfg1_space, recon, sr, fam)
    # the bundles biject with the points, but the omega lines are invisible
    # to them: incidence and collinearity both fail, with witnesses
    assert report["checks"]["count"]
    assert report["checks"]["natural_map"]
    assert report["checks"]["bijection"]
    assert not report["checks"]["incidence"]
    assert not report["checks"]["collinearity"]
    assert report["incidence_mismatches"] == 196
    witness = report["incidence_witnesses"][0]
    assert witness["missing_kinds"] == [LINE_OMEGA]
    assert not report["ok"]


def test_reconstruction_succeeds_with_roomy_stars(roomy_reconstruction):
    # every line of this configuration lies in a 4-dimensional star, so the
    # reconstruction genuinely recovers the whole geometry for both relations
    for report in roomy_reconstruction.values():
        assert report["applicable"]
        assert report["ok"], report["checks"]
        assert report["bundle_count"] == report["point_count"] == 560
        # nontrivial gluing: every point lies in three stars
        assert report["family_size"] == 3 * 560
