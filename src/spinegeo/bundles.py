"""Bundle reconstruction: points from the semibundle family of a line relation.

Two high-dimensional cliques are glued when each contains two distinct
lines related to the other and they are disjoint or equal; a bundle is the
union of a gluing class.  Under the bundle gate each class collects the
semibundles at one vertex.  Bundles are exactly the line sets "all lines
through a point" only if, in addition, every line lies in a strong
subspace of dimension at least 4: the input family holds the cliques of
abstract dimension at least 3, whose hosts have dimension at least 4, so
a line without such a host is in no bundle.  The bundle gate does not
imply this (on (q,n,k,m,w) = (2,6,2,1,3) it holds while every omega line
lies only in planes).  With both conditions the bundle family reconstructs
the point set, with collinearity read off bundle intersections.
`verify_equivalence` compares such a reconstruction (built from a stripped
graph) with the source geometry through the stripping permutation and
reports every discrepancy instead of asserting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pencils import LineGeometry
from .relations import LineRelationGraph, StripResult, bits_of
from .spine import SpineSpace


def upsilon(k1_mask: int, k2_mask: int, graph: LineRelationGraph) -> bool:
    """At least two distinct lines of the first clique relate into the second."""
    hits = 0
    for l in bits_of(k1_mask):
        if graph.rows[l] & k2_mask:
            hits += 1
            if hits == 2:
                return True
    return False


def upsilon_empty(k1_mask: int, k2_mask: int, graph: LineRelationGraph) -> bool:
    """Symmetric gluing relation: mutual relatedness plus disjoint-or-equal."""
    if k1_mask != k2_mask and k1_mask & k2_mask:
        return False
    return upsilon(k1_mask, k2_mask, graph) and upsilon(k2_mask, k1_mask, graph)


def bundle_of(k_mask: int, bundle_family: list[int], graph: LineRelationGraph) -> int:
    """Union of the gluing class of one clique, as a line mask."""
    out = 0
    for other in bundle_family:
        if upsilon_empty(k_mask, other, graph):
            out |= other
    return out


@dataclass
class ReconstructedSpace:
    """Points recovered as bundles over a line universe.

    `points` are deduplicated bundle masks; a line is incident to a point
    iff its bit is set in the bundle; points are collinear iff their
    bundles intersect.
    """

    line_count: int
    points: list[int]
    class_of: list[int]  # gluing class index per input clique
    transitive: bool
    transitivity_witnesses: list[tuple[int, int, int]] = field(default_factory=list)


def gluing_adjacency(bundle_family: list[int], graph: LineRelationGraph) -> list[set[int]]:
    """The pairs of family members that `upsilon_empty` glues, as neighbour sets.

    Each clique's reach, the union of its lines' rows, is computed once.
    The relation is symmetric, so a line relates into a clique iff it lies
    in that clique's reach, and `upsilon(k1, k2)` holds iff `k1 & reach(k2)`
    has at least two bits: the same pairs glue as under `upsilon_empty`,
    with a few integer operations per pair instead of a walk over lines.
    """
    rows = graph.rows
    reach = []
    for k in bundle_family:
        r = 0
        for l in bits_of(k):
            r |= rows[l]
        reach.append(r)
    n = len(bundle_family)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        ki, reach_i = bundle_family[i], reach[i]
        for j in range(i + 1, n):
            kj = bundle_family[j]
            if ki != kj and ki & kj:
                continue
            if (ki & reach[j]).bit_count() >= 2 and (kj & reach_i).bit_count() >= 2:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def reconstruct(bundle_family: list[int], graph: LineRelationGraph) -> ReconstructedSpace:
    """Points as bundles over the gluing classes of the semibundle family.

    The gluing relation is reflexive and symmetric by construction; its
    transitivity on the family is verified, not assumed.  Classes are taken
    as connected components of `gluing_adjacency` (the pairs `upsilon_empty`
    glues, read off reach masks), each checked to be relation-complete; any failing triple is reported as a witness while
    the bundles are still produced from the component unions.
    """
    n = len(bundle_family)
    adj = gluing_adjacency(bundle_family, graph)
    class_of = [-1] * n
    classes: list[list[int]] = []
    for i in range(n):
        if class_of[i] >= 0:
            continue
        comp = [i]
        class_of[i] = len(classes)
        stack = [i]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if class_of[u] < 0:
                    class_of[u] = len(classes)
                    comp.append(u)
                    stack.append(u)
        classes.append(sorted(comp))
    witnesses = []
    for comp in classes:
        if len(comp) < 3:
            continue
        for a in range(len(comp)):
            for b in range(a + 1, len(comp)):
                if comp[b] not in adj[comp[a]]:
                    # find the connecting middle vertex for the report
                    mid = next(iter(adj[comp[a]] & adj[comp[b]]), comp[0])
                    witnesses.append((comp[a], mid, comp[b]))
        if witnesses:
            break
    bundles: dict[int, None] = {}
    for comp in classes:
        mask = 0
        for i in comp:
            mask |= bundle_family[i]
        bundles.setdefault(mask)
    points = sorted(bundles, key=lambda m: tuple(bits_of(m)))
    return ReconstructedSpace(graph.count, points, class_of, not witnesses, witnesses)


def reconstruct_from_geometry(geometry: LineGeometry) -> ReconstructedSpace:
    family = [geometry.cliques.masks[ci] for ci in geometry.bundle_cliques]
    return reconstruct(family, geometry.graph)


def verify_equivalence(space: SpineSpace, recon: ReconstructedSpace,
                       strip_result: StripResult, bundle_family: list[int]) -> dict:
    """Compare a reconstruction against the source spine space.

    The stripping permutation carries original line ids to the
    reconstruction's universe.  The natural map sends a proper
    point to the bundle of its semibundles in the input family; each check
    is reported separately:

    * naturality -- every family member is geometrically a semibundle at a
      proper point, and all members at one point yield the same bundle;
    * bijection -- the natural map is defined everywhere, injective, and
      onto the reconstructed point set;
    * incidence -- a point's bundle is exactly the lines through it, so
      line-point incidence transfers both ways;
    * collinearity -- two points share a line iff their bundles intersect.
    """
    perm, inv = strip_result.perm, strip_result.inverse
    report: dict = {"checks": {}}
    report["point_count"] = len(space.points)
    report["bundle_count"] = len(recon.points)
    report["checks"]["count"] = len(space.points) == len(recon.points)
    report["checks"]["transitive_gluing"] = recon.transitive

    semibundle_at = {
        lines: key for key, lines in space.semibundles(min_p_dim=2).items()
    }
    index_of = {m: i for i, m in enumerate(recon.points)}

    anomalies = []
    nat: dict[int, int] = {}  # pid -> reconstructed point index
    for ci, k_mask in enumerate(bundle_family):
        key = semibundle_at.get(strip_result.original(k_mask))
        if key is None or key[1] not in space.pid_of_gid:
            anomalies.append({"clique": ci, "reason": "not a proper semibundle"})
            continue
        pid = space.pid_of_gid[key[1]]
        bundle_mask = 0
        for cj, other in enumerate(bundle_family):
            if recon.class_of[cj] == recon.class_of[ci]:
                bundle_mask |= other
        target = index_of.get(bundle_mask)
        if target is None:
            anomalies.append({"clique": ci, "reason": "class union is not a point"})
            continue
        if pid in nat and nat[pid] != target:
            anomalies.append({"point": pid, "reason": "two bundles at one point"})
        nat[pid] = target
    report["checks"]["natural_map"] = not anomalies
    report["anomalies"] = anomalies[:5]
    covered = set(nat.values())
    report["checks"]["bijection"] = (
        len(nat) == len(space.points)
        and len(covered) == len(nat) == len(recon.points)
    )
    report["bijection_table"] = {
        str(pid): _digest(recon.points[idx]) for pid, idx in sorted(nat.items())
    }

    incidence_bad = []
    for pid in range(len(space.points)):
        geo_mask = _geo_bundle_mask(space, pid, perm)
        got_mask = recon.points[nat[pid]] if pid in nat else 0
        if geo_mask != got_mask:
            missing = [inv[l] for l in bits_of(geo_mask & ~got_mask)]
            extra = [inv[l] for l in bits_of(got_mask & ~geo_mask)]
            incidence_bad.append(
                {"point": pid,
                 "missing_lines": missing[:8], "missing_count": len(missing),
                 "extra_lines": extra[:8], "extra_count": len(extra),
                 "missing_kinds": sorted({space.lines[l].kind for l in missing})}
            )
    report["checks"]["incidence"] = not incidence_bad
    report["incidence_mismatches"] = len(incidence_bad)
    report["incidence_witnesses"] = incidence_bad[:3]

    collinear_bad = 0
    collinear_witness = None
    geo_masks = [_geo_bundle_mask(space, pid, perm) for pid in range(len(space.points))]
    for p1 in range(len(space.points)):
        r1 = recon.points[nat[p1]] if p1 in nat else 0
        for p2 in range(p1 + 1, len(space.points)):
            geo_joined = bool(geo_masks[p1] & geo_masks[p2])
            got_joined = bool(r1 & recon.points[nat[p2]]) if p2 in nat else False
            if geo_joined != got_joined:
                collinear_bad += 1
                if collinear_witness is None:
                    collinear_witness = (p1, p2)
    report["checks"]["collinearity"] = collinear_bad == 0
    report["collinearity_mismatches"] = collinear_bad
    report["collinearity_witness"] = collinear_witness
    report["ok"] = all(bool(v) for v in report["checks"].values() if v is not None)
    return report


def _digest(mask: int) -> str:
    import hashlib

    body = ",".join(str(l) for l in bits_of(mask))
    return hashlib.sha256(body.encode()).hexdigest()[:12]


def _geo_bundle_mask(space: SpineSpace, pid: int, perm) -> int:
    mask = 0
    for lid in space.lines_through.get(space.proper_gids[pid], ()):
        if pid in space.lines[lid].proper_pids:
            mask |= 1 << perm[lid]
    return mask
