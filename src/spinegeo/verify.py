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

from .bundles import verify_equivalence
from .cliques import (
    KIND_AFFINE_SEMIFLAT,
    KIND_PUNCTURED_SEMIFLAT,
    classify_clique,
    is_maximal_clique,
    podmianka,
)
from .excluded import CASE_NEIGHBOURHOOD, build_homology_map, classify_case, verify_counterexample
from .gf import FieldSpec, enumerate_subspaces, q_binomial
from .pencils import family_B, p_pi, p_rho
from .relations import PI, RHO
from .spine import LINE_AFFINE, STAR_ALPHA, GeoPencil, SpineSpace

if TYPE_CHECKING:
    from .harness import Workspace

# the scalar of the counterexample's homology; any value in [2, q) moves lines
HOMOLOGY_SCALE = 2


def check_subspace_counts(max_n: int, qs) -> dict:
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
    """Both relations irreflexive and symmetric, and rho within pi; a relation
    that breaks an invariant names its first witness in "invariant_problems"."""
    pi, rho = ws.graph(PI), ws.graph(RHO)
    problems = []
    for graph in (pi, rho):
        try:
            graph.check_invariants()
        except AssertionError as exc:
            problems.append(f"{graph.delta_kind}: {exc}")
    rho_in_pi = all(not (rho.rows[i] & ~pi.rows[i]) for i in range(pi.count))
    out = {"ok": rho_in_pi and not problems, "rho_subset_pi": rho_in_pi,
           "pi_edges": pi.edge_count(), "rho_edges": rho.edge_count()}
    if problems:
        out["invariant_problems"] = problems
    return out


def check_clique_classification(ws: Workspace) -> dict:
    """Maximal cliques match the geometric families exactly.

    Up to `BK_MAX_LINES` lines the Bron-Kerbosch oracle enumerates all
    maximal cliques and the comparison is a set equality against the
    families.  Above it ("constructive" mode) each geometric family member
    is only verified to be a clique and maximal; nothing shows there that
    no other maximal clique exists.
    """
    fams = ws.families()
    out: dict = {"pi_family_size": len(fams.pi_family),
                 "rho_family_size": len(fams.rho_family)}
    if ws.cliques(PI) is not None:
        bk_pi, bk_rho = set(ws.cliques(PI)), set(ws.cliques(RHO))
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
            for mem in sorted(family):
                if not is_maximal_clique(mem, graph):
                    problems.append((graph.delta_kind, mem[:4]))
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
    members = ws.cliques(RHO)
    if members is None:
        members = sorted(fams.rho_family)
    gf2 = space.params.space.q == 2
    mismatches = []
    excluded_sizes: dict[str, int] = {}
    per_kind: dict[str, dict[bool, int]] = {}
    for mem in members:
        kind, _ = classify_clique(mem, fams)
        flag = podmianka(mem, rho)
        per_kind.setdefault(kind, {True: 0, False: 0})[flag] += 1
        if gf2 and kind == KIND_AFFINE_SEMIFLAT:
            size = str(len(mem))
            excluded_sizes[size] = excluded_sizes.get(size, 0) + 1
            continue
        expected = kind in (KIND_PUNCTURED_SEMIFLAT, KIND_AFFINE_SEMIFLAT)
        if flag != expected:
            mismatches.append({"kind": kind, "exchange": flag,
                               "clique": mem[:8]})
    report = {"ok": not mismatches, "cliques": len(members),
              "per_kind": {k: {str(b): c for b, c in v.items()} for k, v in per_kind.items()},
              "mismatch_count": len(mismatches), "mismatches": mismatches[:5]}
    if excluded_sizes:
        report["outside_hypothesis"] = {
            "hypothesis": "q >= 3", "kind": KIND_AFFINE_SEMIFLAT,
            "count": sum(excluded_sizes.values()), "sizes": excluded_sizes,
        }
    return report


def _pencil_of_triple(space: SpineSpace) -> dict[tuple[int, int, int], GeoPencil]:
    """Every sorted triple of lines inside a geometric pencil, mapped to it.

    Two lines lie in at most one pencil, so no triple is claimed twice.
    """
    out: dict[tuple[int, int, int], GeoPencil] = {}
    for p in space.pencils():
        for tri in itertools.combinations(p.line_ids, 3):
            assert tri not in out, f"lines {tri} lie in two pencils"
            out[tri] = p
    return out


def check_ternary_pencils(ws: Workspace) -> dict:
    """Ternary concurrency identifies pencils, clique by clique.

    For every triple inside every maximal clique of each relation the run's
    `delta` selects, the abstract predicate is compared against the
    geometric truth: for the coplanarity relation a triple should qualify
    iff it lies in a pencil (proper or parallel vertex); for the
    proper-pencil relation iff it lies in a pencil with a proper vertex.
    Applicable only when every plane extends into a strong subspace of
    dimension at least 3.

    The predicates run on the stripped graph and its spanned cliques
    (`family_K`); cliques and triples are compared in original line ids.

    The proper-pencil half assumes q >= 3 on affine planes.  Over GF(2) its
    triples are compared on the pencils of non-affine planes only; the
    affine-plane proper pencils are listed under "outside_hypothesis", and
    the half passes only if each of them spans (the stated cause).
    """
    if not ws.gates().pencil_gate:
        return {"applicable": False, "ok": True, "note": "pencil gate fails"}
    space, fams = ws.space(), ws.families()
    pencil_of = _pencil_of_triple(space)

    report: dict = {"applicable": True}
    for name in ws.cfg.deltas():
        outside, excluded = ws.rho_outside() if name == RHO else (set(), None)
        sr, cliques = ws.stripped(name), ws.spanned(name)
        graph, perm, inv = sr.graph, sr.perm, sr.inverse
        spanned = {tuple(sorted(inv[l] for l in mem)) for mem in cliques.members}
        expected = fams.pi_family if name == PI else fams.rho_family
        # spanned cliques are maximal, so the spanning family never exceeds
        # the geometric one; anything unspanned must be an affine semiflat
        unspanned = expected - spanned
        if name == PI:
            coverage_ok = spanned == expected
        else:
            coverage_ok = spanned <= expected and all(
                classify_clique(s, fams)[0] == KIND_AFFINE_SEMIFLAT
                for s in unspanned
            )
        mismatches = {}
        total = 0
        for mem in sorted(spanned | expected):
            for tri in itertools.combinations(mem, 3):
                p = pencil_of.get(tri)
                if name == PI:
                    got = p_pi(perm[tri[0]], perm[tri[1]], perm[tri[2]], graph)
                    want = p is not None
                elif p is not None and p.line_ids in outside:
                    continue
                else:
                    got = p_rho(perm[tri[0]], perm[tri[1]], perm[tri[2]], graph, cliques)
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
        if excluded is not None:
            report[name]["outside_hypothesis"] = excluded
            report[name]["ok"] = report[name]["ok"] and excluded["cause_holds"]
    report["ok"] = all(report[name]["ok"] for name in ws.cfg.deltas())
    return report


def _pencil_comparison(recovered: set, target: set) -> dict:
    """Recovered against geometric pencils, each side a set of ascending
    line-id tuples: the counts and the three smallest witnesses of each side."""
    missing = target - recovered
    extra = recovered - target
    return {
        "recovered": len(recovered),
        "geometric": len(target),
        "missing": len(missing),
        "extra": len(extra),
        "equal": not missing and not extra,
        "missing_witnesses": sorted(missing)[:3],
        "extra_witnesses": sorted(extra)[:3],
    }


def check_pencil_recovery(ws: Workspace) -> dict:
    """The abstract pencil family on a stripped graph matches the geometry.

    For each relation the run's `delta` selects, the pipeline only sees ids
    and adjacency; its surviving pencils are mapped back through the
    stripping permutation and compared with the geometric proper pencils as
    a set.  When the pencil gate fails the comparison is reported without
    being counted as a failure.

    The proper-pencil half assumes q >= 3 on affine planes.  Over GF(2) it is
    compared exactly on the pencils of non-affine planes; the affine-plane
    proper pencils are listed under "outside_hypothesis", and the half
    passes only if each of them spans (the stated cause).
    """
    gates, space = ws.gates(), ws.space()
    geo_proper = {p.line_ids for p in space.pencils() if p.proper}
    report: dict = {"applicable": True, "gate": gates.pencil_gate}
    for name in ws.cfg.deltas():
        outside, excluded = ws.rho_outside() if name == RHO else (set(), None)
        sr, geometry = ws.stripped(name), ws.geometry(name)
        target = geo_proper - outside if outside else geo_proper
        # the recovered sets live only in the call, so one relation's are
        # freed before the next relation's are built
        inv, members = sr.inverse, geometry.pencils.members
        entry = _pencil_comparison({tuple(sorted(inv[l] for l in members[idx]))
                                    for idx in geometry.proper_pencils}, target)
        cause_holds = True
        if excluded is not None:
            entry["outside_hypothesis"] = excluded
            cause_holds = excluded["cause_holds"]
        if gates.pencil_gate:
            entry["ok"] = entry["equal"] and cause_holds
        else:
            entry["ok"] = True
            entry["note"] = "pencil gate fails; recovery reported, not asserted"
        report[name] = entry
    report["ok"] = all(report[name]["ok"] for name in ws.cfg.deltas())
    return report


def check_upsilon_structure(ws: Workspace, kind: str) -> dict:
    """Gluing on the abstract semibundle family matches vertex equality.

    Runs the stripped pipeline, maps each high-dimensional clique back to
    its geometric semibundle, and verifies the gluing relation holds for a
    pair iff the hosts have the same shape (both stars or both tops) and
    the same vertex; transitivity is established by checking every gluing
    class is relation-complete, and when some class is not, the first five
    (a, middle, b) triples with a and b unglued are reported under
    `transitivity_witnesses`.  The glued pairs are those the
    reconstruction found (`gluing_adjacency`, which agrees with
    `upsilon_empty` pair for pair).
    """
    inv = ws.stripped(kind).inverse
    fam = family_B(ws.geometry(kind))
    if not fam:
        return {"applicable": False, "ok": True, "note": "empty semibundle family"}
    space = ws.space()
    kinds = []
    unmatched = 0
    for mem in fam:
        key = space.semibundle_at([inv[l] for l in mem])
        if key is None:
            unmatched += 1
            kinds.append(None)
        else:
            sid, gid = key
            shape = "star" if "star" in space.strongs[sid].kind else "top"
            kinds.append((shape, gid))
    recon = ws.reconstruction(kind)
    # the pairs i < j expected to glue are those within a group of equal
    # (shape, vertex); at each i the mismatches are the symmetric difference
    # of its later group members and its later glued partners, ascending
    groups: dict[tuple, list[int]] = {}
    for i, host in enumerate(kinds):
        if host is not None:
            groups.setdefault(host, []).append(i)
    mismatches = []
    for i, host in enumerate(kinds):
        expected = {j for j in groups.get(host, ()) if j > i}
        glued_to = {j for j in recon.adjacency[i] if j > i}
        for j in sorted(expected ^ glued_to):
            mismatches.append({"pair": (i, j), "glued": j in glued_to,
                               "hosts": (host, kinds[j])})
    report = {
        "applicable": True,
        "family_size": len(fam),
        "unmatched_cliques": unmatched,
        "mismatch_count": len(mismatches),
        "witnesses": mismatches[:5],
        "transitive": recon.transitive,
        "ok": not mismatches and not unmatched and recon.transitive,
    }
    if not recon.transitive:
        report["transitivity_witnesses"] = recon.transitivity_witnesses[:5]
    return report


def lines_without_host(space: SpineSpace) -> dict[str, int]:
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
    uncovered = lines_without_host(space)
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
