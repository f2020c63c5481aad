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

Every function here takes cliques as sorted line-id tuples (`family_B`'s)
and builds the masks it needs inside the call; only the reconstruction's
output, its points, are masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .relations import LineRelationGraph, StripResult, bits_of
from .spine import SpineSpace


def upsilon(k1, k2, graph: LineRelationGraph) -> bool:
    """At least two distinct lines of the first clique relate into the second."""
    k2_mask = graph.mask_of(k2)
    hits = 0
    for l in k1:
        if graph.rows[l] & k2_mask:
            hits += 1
            if hits == 2:
                return True
    return False


def upsilon_empty(k1, k2, graph: LineRelationGraph) -> bool:
    """Symmetric gluing relation: mutual relatedness plus disjoint-or-equal."""
    if k1 != k2 and not set(k1).isdisjoint(k2):
        return False
    return upsilon(k1, k2, graph) and upsilon(k2, k1, graph)


@dataclass
class ReconstructedSpace:
    """Points recovered as bundles over a line universe.

    `points` are deduplicated bundle masks; a line is incident to a point
    iff its bit is set in the bundle; points are collinear iff their
    bundles intersect.  `class_of` gives each input clique's gluing class,
    and `point_of_class` each class's point: the index into `points` of the
    class's union.  `adjacency[i]` holds the input cliques glued to clique
    i, as `gluing_adjacency` found them.  `transitivity_witnesses` holds
    the triples (a, middle, b) where middle is glued to a and to b and a is
    not glued to b; there are none iff `transitive`.
    """

    points: list[int]
    class_of: list[int]
    point_of_class: list[int]
    adjacency: list[set[int]]
    transitive: bool
    transitivity_witnesses: list[tuple[int, int, int]]


def gluing_adjacency(bundle_family, graph: LineRelationGraph) -> list[set[int]]:
    """The pairs of family members that `upsilon_empty` glues, as neighbour sets.

    The relation is symmetric, so a line relates into clique i iff it lies
    in i's reach, the union of its lines' rows; `upsilon(kj, ki)` thus
    counts the lines of clique j in that reach.  An index from each line to
    the family members holding it, built inside the call, gives those counts
    for every later j in one walk over the reach, and only the j with two
    or more get the other two tests: disjoint or equal, and `upsilon(ki,
    kj)`.  Each neighbour set gets its members in ascending order, as an
    all-pairs scan adds them.
    """
    rows = graph.rows
    holding: dict[int, list[int]] = {}  # line -> the family members holding it
    for idx, k in enumerate(bundle_family):
        for l in k:
            holding.setdefault(l, []).append(idx)
    adj: list[set[int]] = [set() for _ in bundle_family]
    for i, ki in enumerate(bundle_family):
        reach = 0
        for l in ki:
            reach |= rows[l]
        hits: dict[int, int] = {}  # later member j -> its lines in i's reach
        for l in bits_of(reach):
            for j in holding.get(l, ()):
                if j > i:
                    hits[j] = hits.get(j, 0) + 1
        for j in sorted(j for j, c in hits.items() if c >= 2):
            kj = bundle_family[j]
            if (ki == kj or set(ki).isdisjoint(kj)) and upsilon(ki, kj, graph):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def reconstruct(bundle_family, graph: LineRelationGraph) -> ReconstructedSpace:
    """Points as bundles over the gluing classes of the semibundle family.

    The gluing relation is reflexive and symmetric by construction; its
    transitivity on the family is verified, not assumed.  Classes are taken
    as connected components of `gluing_adjacency` (the pairs `upsilon_empty`
    glues), each checked to be relation-complete; any failing triple is
    reported as a witness while the bundles are still produced from the
    component unions.
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
    # an unglued pair of one class with a member glued to both; a class that
    # is not relation-complete has one, as a shortest path of length 2 shows
    witnesses = []
    for comp in classes:
        for a, b in itertools.combinations(comp, 2):
            if b not in adj[a] and (middles := adj[a] & adj[b]):
                witnesses.append((a, min(middles), b))
    unions = [tuple(sorted({l for i in comp for l in bundle_family[i]})) for comp in classes]
    points = sorted(set(unions))
    index = {u: i for i, u in enumerate(points)}
    return ReconstructedSpace([graph.mask_of(u) for u in points], class_of,
                              [index[u] for u in unions], adj, not witnesses, witnesses)


def verify_equivalence(space: SpineSpace, recon: ReconstructedSpace,
                       strip_result: StripResult, bundle_family) -> dict:
    """Compare a reconstruction against the source spine space.

    The stripping permutation carries original line ids to the
    reconstruction's universe, where `bundle_family` is given.  The natural
    map sends a proper point to the bundle of its semibundles in the input
    family; each check is reported separately:

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

    anomalies = []
    nat: dict[int, int] = {}  # pid -> reconstructed point index
    for ci, k in enumerate(bundle_family):
        key = space.semibundle_at(frozenset(inv[l] for l in k))
        if key is None or key[1] not in space.pid_of_gid:
            anomalies.append({"clique": ci, "reason": "not a proper semibundle"})
            continue
        pid = space.pid_of_gid[key[1]]
        target = recon.point_of_class[recon.class_of[ci]]
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

    geo_masks = [_geo_bundle_mask(space, pid, perm) for pid in range(len(space.points))]
    incidence_bad = []
    for pid, geo_mask in enumerate(geo_masks):
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
    report["ok"] = all(report["checks"].values())
    return report


def _digest(mask: int) -> str:
    import hashlib

    body = ",".join(str(l) for l in bits_of(mask))
    return hashlib.sha256(body.encode()).hexdigest()[:12]


def _geo_bundle_mask(space: SpineSpace, pid: int, perm) -> int:
    """The lines through proper point `pid`, in stripped ids."""
    mask = 0
    for lid in space.lines_through.get(space.proper_gids[pid], ()):
        mask |= 1 << perm[lid]
    return mask
