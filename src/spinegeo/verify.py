"""The structural check suite: every claim the package verifies, as reports.

Each check returns a dict with an "ok" flag plus enough detail to locate a
failure (counts, bounded witness lists).  Checks never assert; the caller
(test suite or command line) decides what a failure means.  Checks that
only apply under a gate return {"applicable": False} when the gate fails.

A check reads the space, the relations and every derived stage from a
`harness.Workspace`, which computes each of them once for all checks.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .bundles import upsilon_empty, verify_equivalence
from .cliques import (
    KIND_AFFINE_SEMIFLAT,
    KIND_PUNCTURED_SEMIFLAT,
    classify_clique,
    delta_n,
    podmianka,
)
from .excluded import CASE_NEIGHBOURHOOD, build_homology_map, classify_case, verify_counterexample
from .gf import FieldSpec, enumerate_subspaces, q_binomial
from .pencils import RhoCliqueIndex, family_B, p_pi, p_rho
from .relations import PI, RHO, LineRelationGraph, bits_of
from .spine import LINE_AFFINE, PLANE_AFFINE, STAR_ALPHA, SpineSpace

if TYPE_CHECKING:
    from .harness import Workspace

# the scalar of the counterexample's homology; any value in [2, q) moves lines
HOMOLOGY_SCALE = 2


def check_subspace_counts(max_n: int = 6, qs=(2, 3)) -> dict:
    """Exhaustive subspace enumeration agrees with the Gaussian binomials."""
    mismatches = []
    checked = 0
    for q in qs:
        for n in range(3, max_n + 1):
            spec = FieldSpec(q, n)
            for k in range(n + 1):
                checked += 1
                got = len(enumerate_subspaces(spec, k))
                want = q_binomial(n, k, q)
                if got != want:
                    mismatches.append({"q": q, "n": n, "k": k, "got": got, "want": want})
    return {"ok": not mismatches, "checked": checked, "mismatches": mismatches}


def check_foundations(ws: Workspace) -> dict:
    """Intersection dichotomy of strong subspaces plus the tripod span rule."""
    space = ws.space()
    fact = space.check_fact_intersections()
    tripod = space.check_tripod_span()
    return {"ok": fact["ok"] and tripod["ok"], "intersections": fact, "tripods": tripod}


def check_relation_sanity(ws: Workspace) -> dict:
    pi, rho = ws.graph(PI), ws.graph(RHO)
    pi.check_invariants()
    rho.check_invariants()
    rho_in_pi = all(not (rho.rows[i] & ~pi.rows[i]) for i in range(pi.count))
    return {"ok": rho_in_pi, "rho_subset_pi": rho_in_pi,
            "pi_edges": pi.edge_count(), "rho_edges": rho.edge_count()}


def check_clique_classification(ws: Workspace) -> dict:
    """Maximal cliques match the geometric families exactly.

    Below the oracle cap the Bron-Kerbosch oracle enumerates all maximal
    cliques and the comparison is a set equality against the families;
    above it the families themselves are verified to be maximal cliques and
    to be spanned where expected (constructive verification).
    """
    fams = ws.families()
    out: dict = {"pi_family_size": len(fams.pi_family),
                 "rho_family_size": len(fams.rho_family)}
    if ws.cliques(PI) is not None:
        bk_pi = {frozenset(bits_of(m)) for m in ws.cliques(PI)}
        bk_rho = {frozenset(bits_of(m)) for m in ws.cliques(RHO)}
        out["mode"] = "bron-kerbosch"
        out["pi_equal"] = bk_pi == fams.pi_family
        out["rho_equal"] = bk_rho == fams.rho_family
        out["pi_extra"] = len(bk_pi - fams.pi_family)
        out["pi_missing"] = len(fams.pi_family - bk_pi)
        out["rho_extra"] = len(bk_rho - fams.rho_family)
        out["rho_missing"] = len(fams.rho_family - bk_rho)
    else:
        out["mode"] = "constructive"
        problems = []
        for kind, family in ((PI, fams.pi_family), (RHO, fams.rho_family)):
            graph = ws.graph(kind)
            rows = graph.rows
            for lines in family:
                mask = graph.mask_of(lines)
                inter = ~0
                ok_clique = True
                for l in lines:
                    if mask & ~(rows[l] | (1 << l)):
                        ok_clique = False
                        break
                    inter &= rows[l]
                if not ok_clique or (inter & ~mask):
                    problems.append((graph.delta_kind, sorted(lines)[:4]))
        out["pi_equal"] = out["rho_equal"] = not problems
        out["problems"] = problems[:5]
    out["ok"] = out["pi_equal"] and out["rho_equal"]
    return out


def check_exchange_criterion(ws: Workspace) -> dict:
    """Exchange succeeds exactly on the semiaffine semiflats, given q >= 3.

    Runs over every maximal clique of the proper-pencil relation and
    compares the exchange test against the geometric classification.  Over
    GF(2) an affine semiflat is a three-line direction selector of AG(2,2):
    swapping one of its lines for that line's parallel makes the three lines
    concurrent, and the concurrent triple extends into the ambient
    semibundle, so no swap gives a maximal clique.  There the affine
    semiflats lie outside the hypothesis: "outside_hypothesis" counts them
    (by line count) and they are not compared.  Above the oracle cap the
    cliques are the geometric rho family.
    """
    space, rho, fams = ws.space(), ws.graph(RHO), ws.families()
    masks = ws.cliques(RHO)
    if masks is None:
        masks = [rho.mask_of(lines) for lines in fams.rho_family]
    gf2 = space.params.space.q == 2
    mismatches = []
    excluded_sizes: dict[str, int] = {}
    per_kind: dict[str, dict[bool, int]] = {}
    for mask in masks:
        kind, _ = classify_clique(frozenset(bits_of(mask)), space, fams)
        flag = podmianka(mask, rho)
        per_kind.setdefault(kind, {True: 0, False: 0})[flag] += 1
        if gf2 and kind == KIND_AFFINE_SEMIFLAT:
            size = str(mask.bit_count())
            excluded_sizes[size] = excluded_sizes.get(size, 0) + 1
            continue
        expected = kind in (KIND_PUNCTURED_SEMIFLAT, KIND_AFFINE_SEMIFLAT)
        if flag != expected:
            mismatches.append({"kind": kind, "exchange": flag,
                               "clique": tuple(bits_of(mask))[:8]})
    report = {"ok": not mismatches, "cliques": len(masks),
              "per_kind": {k: {str(b): c for b, c in v.items()} for k, v in per_kind.items()},
              "mismatch_count": len(mismatches), "mismatches": mismatches[:5]}
    if excluded_sizes:
        report["outside_hypothesis"] = {
            "hypothesis": "q >= 3", "kind": KIND_AFFINE_SEMIFLAT,
            "count": sum(excluded_sizes.values()), "sizes": excluded_sizes,
        }
    return report


def _pencil_index(space: SpineSpace):
    by_line: dict[int, list[int]] = {}
    pencils = space.pencils()
    for idx, p in enumerate(pencils):
        for l in p.line_ids:
            by_line.setdefault(l, []).append(idx)
    return pencils, by_line


def _rho_outside_hypothesis(space: SpineSpace) -> set[frozenset[int]]:
    """Over GF(2), the proper pencils on affine planes; empty when q >= 3.

    Such a pencil is three lines, one per direction of AG(2,2), and the
    triple spans under rho; `p_rho` asks for a non-spanning triple, so it
    cannot see these pencils.
    """
    if space.params.space.q != 2:
        return set()
    planes = space.planes()
    return {p.line_ids for p in space.pencils()
            if p.proper and planes[p.plane_id].kind == PLANE_AFFINE}


def _outside_report(pencils: set[frozenset[int]], rho: LineRelationGraph) -> dict:
    """The excluded pencils, and whether each spans under rho (the stated cause)."""
    rows = sorted(sorted(p) for p in pencils)
    spanning = sum(delta_n(p, rho) for p in rows)
    return {"hypothesis": "q >= 3", "count": len(rows), "spanning": spanning,
            "cause_holds": spanning == len(rows), "pencils": rows}


def check_ternary_pencils(ws: Workspace) -> dict:
    """Ternary concurrency identifies pencils, clique by clique.

    For every triple inside every maximal clique of each relation, the
    abstract predicate is compared against the geometric truth: for the
    coplanarity relation a triple should qualify iff it lies in a pencil
    (proper or parallel vertex); for the proper-pencil relation iff it lies
    in a pencil with a proper vertex.  Applicable only when every plane
    extends into a strong subspace of dimension at least 3.

    The proper-pencil half assumes q >= 3 on affine planes.  Over GF(2) its
    triples are compared on the pencils of non-affine planes only; the
    affine-plane proper pencils are listed under "outside_hypothesis", and
    the half passes only if each of them spans (the stated cause).
    """
    if not ws.gates().pencil_gate:
        return {"applicable": False, "ok": True, "note": "pencil gate fails"}
    space, fams = ws.space(), ws.families()
    pencils, pencil_by_line = _pencil_index(space)

    def geo_pencil_of(tri):
        hits = None
        for l in tri:
            s = set(pencil_by_line.get(l, ()))
            hits = s if hits is None else hits & s
            if not hits:
                return None
        return pencils[min(hits)]

    rho = ws.graph(RHO)
    rho_index = RhoCliqueIndex.build(rho, ws.family(RHO))
    outside = _rho_outside_hypothesis(space)

    report: dict = {"applicable": True}
    for name in (PI, RHO):
        graph = ws.graph(name)
        family_sets = {frozenset(m) for m in ws.family(name).members}
        expected = fams.pi_family if name == PI else fams.rho_family
        # spanned cliques are maximal, so the spanning family never exceeds
        # the geometric one; anything unspanned must be an affine semiflat
        unspanned = expected - family_sets
        if name == PI:
            coverage_ok = family_sets == expected
        else:
            coverage_ok = family_sets <= expected and all(
                classify_clique(s, space, fams)[0] == KIND_AFFINE_SEMIFLAT
                for s in unspanned
            )
        mismatches = {}
        total = 0
        domain = sorted(family_sets | expected, key=sorted)
        for mem_set in domain:
            for tri in itertools.combinations(sorted(mem_set), 3):
                p = geo_pencil_of(tri)
                if name == PI:
                    got = p_pi(*tri, graph)
                    want = p is not None
                elif p is not None and p.line_ids in outside:
                    continue
                else:
                    got = p_rho(*tri, graph, rho_index)
                    want = p is not None and p.proper
                total += 1
                if got != want and tri not in mismatches:
                    mismatches[tri] = {"triple": tri, "abstract": got, "geometric": want,
                                       "kinds": sorted({space.lines[l].kind for l in tri})}
        report[name] = {
            "clique_cover_matches": coverage_ok,
            "unspanned": len(unspanned),
            "triples": total,
            "mismatch_count": len(mismatches),
            "witnesses": list(mismatches.values())[:5],
            "ok": coverage_ok and not mismatches,
        }
        if name == RHO and outside:
            excluded = _outside_report(outside, rho)
            report[name]["outside_hypothesis"] = excluded
            report[name]["ok"] = report[name]["ok"] and excluded["cause_holds"]
    report["ok"] = report["pi"]["ok"] and report["rho"]["ok"]
    return report


def check_pencil_recovery(ws: Workspace) -> dict:
    """The abstract pencil family on a stripped graph matches the geometry.

    The pipeline only sees ids and adjacency; its surviving pencils are
    mapped back through the stripping permutation and compared with the
    geometric proper pencils as a set.  When the pencil gate fails the
    comparison is reported without being counted as a failure.

    The proper-pencil half assumes q >= 3 on affine planes.  Over GF(2) it is
    compared exactly on the pencils of non-affine planes; the affine-plane
    proper pencils are listed under "outside_hypothesis", and the half
    passes only if each of them spans (the stated cause).
    """
    gates, space = ws.gates(), ws.space()
    geo_proper = space.proper_pencil_sets()
    outside = _rho_outside_hypothesis(space)
    report: dict = {"applicable": True, "gate": gates.pencil_gate}
    for name in (PI, RHO):
        sr, geometry = ws.stripped(name), ws.geometry(name)
        recovered = {sr.original(geometry.pencils.masks[idx])
                     for idx in geometry.proper_pencils}
        target = geo_proper - outside if name == RHO else geo_proper
        missing = target - recovered
        extra = recovered - target
        entry = {
            "recovered": len(recovered),
            "geometric": len(target),
            "missing": len(missing),
            "extra": len(extra),
            "equal": not missing and not extra,
            "missing_witnesses": [sorted(s) for s in list(missing)[:3]],
            "extra_witnesses": [sorted(s) for s in list(extra)[:3]],
        }
        cause_holds = True
        if name == RHO and outside:
            entry["outside_hypothesis"] = _outside_report(outside, ws.graph(RHO))
            cause_holds = entry["outside_hypothesis"]["cause_holds"]
        if gates.pencil_gate:
            entry["ok"] = entry["equal"] and cause_holds
        else:
            entry["ok"] = True
            entry["note"] = "pencil gate fails; recovery reported, not asserted"
        report[name] = entry
    report["ok"] = report["pi"]["ok"] and report["rho"]["ok"]
    return report


def check_upsilon_structure(ws: Workspace, kind: str) -> dict:
    """Gluing on the abstract semibundle family matches vertex equality.

    Runs the stripped pipeline, maps each high-dimensional clique back to
    its geometric semibundle, and verifies the gluing relation holds for a
    pair iff the hosts have the same shape (both stars or both tops) and
    the same vertex; transitivity is established by checking every gluing
    class is relation-complete.
    """
    sr = ws.stripped(kind)
    fam = family_B(ws.geometry(kind))
    if not fam:
        return {"applicable": False, "ok": True, "note": "empty semibundle family"}
    space = ws.space()
    semibundle_at = {lines: key for key, lines in space.semibundles(min_p_dim=2).items()}
    kinds = []
    unmatched = 0
    for mask in fam:
        key = semibundle_at.get(sr.original(mask))
        if key is None:
            unmatched += 1
            kinds.append(None)
        else:
            sid, gid = key
            shape = "star" if "star" in space.strongs[sid].kind else "top"
            kinds.append((shape, gid))
    mismatches = []
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            glued = upsilon_empty(fam[i], fam[j], sr.graph)
            expected = (
                kinds[i] is not None and kinds[j] is not None
                and kinds[i][0] == kinds[j][0] and kinds[i][1] == kinds[j][1]
            )
            if glued != expected:
                mismatches.append({"pair": (i, j), "glued": glued,
                                   "hosts": (kinds[i], kinds[j])})
    recon = ws.reconstruction(kind)
    return {
        "applicable": True,
        "family_size": len(fam),
        "unmatched_cliques": unmatched,
        "mismatch_count": len(mismatches),
        "witnesses": mismatches[:5],
        "transitive": recon.transitive,
        "ok": not mismatches and not unmatched and recon.transitive,
    }


def _lines_without_host(space: SpineSpace) -> dict[str, int]:
    """Counts by kind of the lines in no strong subspace of dimension >= 4.

    A line's only maximal strong subspaces are its star and its top.
    """
    counts: dict[str, int] = {}
    for ln in space.lines:
        hosts = (space.star_of_line[ln.id], space.top_of_line[ln.id])
        if all(h is None or space.strongs[h].p_dim < 4 for h in hosts):
            counts[ln.kind] = counts.get(ln.kind, 0) + 1
    return dict(sorted(counts.items()))


def check_reconstruction(ws: Workspace, kind: str) -> dict:
    """Full bundle reconstruction from a stripped graph, verified both ways.

    Besides the bundle gate the pipeline needs every line to lie in a
    strong subspace of dimension at least 4: `family_B` keeps the cliques
    of abstract dimension at least 3, whose hosts have dimension at least 4,
    so no bundle can contain a line without such a host.  When some line
    has none, the check is not applicable and "uncovered_lines" counts
    those lines by kind.

    The proper-pencil relation also needs q >= 3 on affine planes (see
    `p_rho`).  Over GF(2), when every line is affine, every plane is affine,
    rho recovers no pencil and no clique gets a dimension, so the check is
    not applicable there either.  These exits come before any stage of the
    abstract pipeline runs.
    """
    gates = ws.gates()
    if not gates.bundle_gate:
        return {"applicable": False, "ok": True,
                "note": "; ".join(gates.notes) or "bundle gate fails"}
    space = ws.space()
    uncovered = _lines_without_host(space)
    if uncovered:
        named = ", ".join(f"{count} {kind}" for kind, count in uncovered.items())
        return {"applicable": False, "ok": True, "uncovered_lines": uncovered,
                "note": f"lines in no strong subspace of dimension >= 4 ({named}); "
                        "no bundle can contain them"}
    if (kind == RHO and space.params.space.q == 2
            and all(ln.kind == LINE_AFFINE for ln in space.lines)):
        return {"applicable": False, "ok": True, "hypothesis": "q >= 3",
                "note": "every line is affine and over GF(2) p_rho sees no pencil "
                        "on an affine plane; rho recovers no pencil"}
    fam = family_B(ws.geometry(kind))
    report = verify_equivalence(space, ws.reconstruction(kind), ws.stripped(kind), fam)
    report["applicable"] = True
    report["family_size"] = len(fam)
    return report


def check_counterexample(ws: Workspace) -> dict:
    """Neighbourhood-case twist: relation-preserving, bundle-breaking."""
    space = ws.space()
    case = classify_case(space.params)
    if case.tag != CASE_NEIGHBOURHOOD:
        return {"applicable": False, "ok": True, "note": f"case {case.tag}"}
    if space.params.space.q < 3:
        return {"applicable": False, "ok": False,
                "note": "no nonidentity central collineation exists over GF(2)"}
    star = next(s for s in space.strongs if s.kind == STAR_ALPHA)
    lmap = build_homology_map(space, star, HOMOLOGY_SCALE)
    report = verify_counterexample(space, lmap, ws.graph(PI), ws.graph(RHO))
    report["applicable"] = True
    report["moved_lines"] = len(lmap.moved)
    return report
