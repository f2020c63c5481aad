"""Maximal cliques of a line relation: spanning predicate, families, oracle.

The n-ary spanning predicate holds for pairwise related, pairwise distinct
lines whose common neighbourhood is itself a clique; the span of such a
triple (its common neighbourhood plus the triple) is then automatically a
maximal clique.  `family_K` collects every clique spanned by some positive
triple.  `bron_kerbosch` enumerates all maximal cliques independently of
the spanning machinery and serves as the oracle of record on small line
universes.  `podmianka` is the single-line exchange criterion that singles
out the semiaffine semiflats among maximal cliques of the proper-pencil
relation when q >= 3.

Cliques are handled as integer bitmasks over line ids throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .relations import LineRelationGraph, bits_of
from .spine import (
    PLANE_AFFINE,
    PLANE_PROJECTIVE,
    PLANE_PUNCTURED,
    LINE_AFFINE,
    SpineSpace,
)

KIND_PROJECTIVE_FLAT = "projective-flat"
KIND_FLAT = "flat"
KIND_PUNCTURED_SEMIFLAT = "punctured-semiflat"
KIND_AFFINE_SEMIFLAT = "affine-semiflat"
KIND_SEMIBUNDLE_PROPER = "semibundle-proper"
KIND_SEMIBUNDLE_IMPROPER = "semibundle-improper"
KIND_UNCLASSIFIED = "unclassified"


def _mask_is_clique(mask: int, rows: list[int]) -> bool:
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if mask & ~(rows[v] | low):
            return False
    return True


def delta_n(ids, graph: LineRelationGraph) -> bool:
    """The general-arity spanning predicate on a tuple of line ids.

    True iff the ids are pairwise distinct, pairwise related, and every two
    common neighbours are themselves related.  When every plane extends
    into a strong subspace of dimension at least 3, a related pair always
    has two non-related common neighbours (one on the plane, one off it),
    so the binary instance is empty there; the arity is kept open anyway.
    """
    ids = tuple(ids)
    if len(set(ids)) != len(ids) or len(ids) < 2:
        return False
    rows = graph.rows
    for a, b in itertools.combinations(ids, 2):
        if not rows[a] >> b & 1:
            return False
    common = graph.common_neighbors(ids)
    return _mask_is_clique(common, rows)


def span_clique(l1: int, l2: int, l3: int, graph: LineRelationGraph) -> frozenset[int]:
    """The maximal clique spanned by a positive triple.

    The span is the triple's common neighbourhood together with the triple
    itself.  Raises if the triple does not satisfy the spanning predicate.
    """
    if not delta_n((l1, l2, l3), graph):
        raise ValueError(f"triple ({l1}, {l2}, {l3}) does not span a clique")
    mask = graph.common_neighbors((l1, l2, l3))
    return frozenset(bits_of(mask)) | {l1, l2, l3}


@dataclass
class CliqueFamily:
    """Cliques spanned by positive triples, deduplicated and sorted.

    `masks[i]` is the bitmask of clique i, `members[i]` its sorted line ids,
    `certificates[i]` one triple whose span is exactly that clique.
    `by_line[l]` lists the clique indexes containing line l.
    """

    graph: LineRelationGraph
    masks: list[int]
    members: list[tuple[int, ...]]
    certificates: list[tuple[int, int, int]]
    by_line: list[list[int]]

    def index_of(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}


def family_K(graph: LineRelationGraph) -> CliqueFamily:
    """All cliques spanned by positive triples, found by edge iteration.

    For every related pair (i, j) each common neighbour k > j is tested; a
    positive triple contributes its span.  Every spanned clique contains a
    positive triple, whose two smallest members form a scanned edge, so the
    scan is exhaustive.

    A third line k that some already-found clique through i and j contains
    is skipped: the span of a positive triple is the only maximal clique
    containing it, so a covered triple either does not span or spans a
    clique already found.  The first triple found for each clique is
    therefore the same as without the skip, and so are the certificates.
    """
    rows = graph.rows
    n = graph.count
    found: dict[int, tuple[int, int, int]] = {}
    at_line: list[list[int]] = [[] for _ in range(n)]  # found cliques per line
    for i in range(n):
        ri = rows[i]
        through_i = at_line[i]
        for j in bits_of(ri >> (i + 1) << (i + 1)):
            covered = 0
            for m in through_i:
                if m >> j & 1:
                    covered |= m
            common_ij = ri & rows[j]
            for k in bits_of(common_ij >> (j + 1) << (j + 1) & ~covered):
                if covered >> k & 1:
                    continue
                common = common_ij & rows[k]
                if not _mask_is_clique(common, rows):
                    continue
                mask = common | (1 << i) | (1 << j) | (1 << k)
                found[mask] = (i, j, k)
                covered |= mask
                for l in bits_of(mask >> i << i):
                    at_line[l].append(mask)
    order = sorted(found, key=lambda m: tuple(bits_of(m)))
    masks = list(order)
    members = [tuple(bits_of(m)) for m in masks]
    certificates = [found[m] for m in masks]
    by_line: list[list[int]] = [[] for _ in range(n)]
    for idx, mem in enumerate(members):
        for l in mem:
            by_line[l].append(idx)
    return CliqueFamily(graph, masks, members, certificates, by_line)


def family_from_masks(graph: LineRelationGraph, masks) -> CliqueFamily:
    """Package an externally produced clique list (e.g. geometric families).

    Each mask is verified to be a maximal clique of the graph, and a
    spanning triple is searched inside each clique; cliques without one get
    certificate None (they are maximal but not spanned, like the affine
    semiflats for the proper-pencil relation).
    """
    rows = graph.rows
    order = sorted(set(masks), key=lambda m: tuple(bits_of(m)))
    members = []
    certs = []
    for mask in order:
        mem = tuple(bits_of(mask))
        if not _mask_is_clique(mask, rows):
            raise ValueError(f"not a clique: {mem}")
        inter = ~0
        for v in mem:
            inter &= rows[v]
        if inter & ~mask:
            raise ValueError(f"clique not maximal: {mem}")
        cert = None
        for tri in itertools.combinations(mem, 3):
            common = rows[tri[0]] & rows[tri[1]] & rows[tri[2]]
            if _mask_is_clique(common, rows):
                cert = tri
                break
        members.append(mem)
        certs.append(cert)
    by_line: list[list[int]] = [[] for _ in range(graph.count)]
    for idx, mem in enumerate(members):
        for l in mem:
            by_line[l].append(idx)
    return CliqueFamily(graph, list(order), members, certs, by_line)


def bron_kerbosch(graph: LineRelationGraph, max_lines: int | None = 5000) -> list[int]:
    """All maximal cliques as bitmasks, by pivoting Bron-Kerbosch.

    Runs over a degeneracy ordering at the outer level.  `max_lines` guards
    against accidental use on large universes; pass None to override.
    """
    n = graph.count
    if max_lines is not None and n > max_lines:
        raise ValueError(f"{n} lines exceeds the Bron-Kerbosch cap of {max_lines}")
    rows = graph.rows
    out: list[int] = []

    def expand(r_mask: int, p_mask: int, x_mask: int):
        if not p_mask and not x_mask:
            out.append(r_mask)
            return
        pux = p_mask | x_mask
        best_u, best_count = -1, -1
        m = pux
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            c = (p_mask & rows[u]).bit_count()
            if c > best_count:
                best_count, best_u = c, u
        m = p_mask & ~rows[best_u]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            expand(r_mask | low, p_mask & rows[v], x_mask & rows[v])
            p_mask &= ~low
            x_mask |= low

    # degeneracy ordering: repeatedly remove a minimum-degree vertex
    remaining = set(range(n))
    degs = {v: graph.degree(v) for v in remaining}
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (degs[u], u))
        order.append(v)
        remaining.remove(v)
        for u in bits_of(rows[v]):
            if u in remaining:
                degs[u] -= 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = 0
        earlier = 0
        for u in bits_of(rows[v]):
            if pos[u] > pos[v]:
                later |= 1 << u
            else:
                earlier |= 1 << u
        expand(1 << v, later, earlier)
    return sorted(out, key=lambda m: tuple(bits_of(m)))


def podmianka(clique_mask: int, graph: LineRelationGraph) -> bool:
    """Single-line exchange test on a maximal clique.

    True iff removing one member and inserting some outside line yields a
    different maximal clique of the same relation.  For q >= 3 this holds
    exactly for the semiaffine semiflats: projective flats and proper
    semibundles have a unique completion.  Over GF(2) an affine semiflat is
    a three-line direction selector of AG(2,2); swapping one of its lines
    for that line's parallel makes the three lines concurrent, and the
    concurrent triple extends into the ambient semibundle, so no swap gives
    a maximal clique and the test is False there.  Raises when the input is
    not a maximal clique.
    """
    rows = graph.rows
    members = tuple(bits_of(clique_mask))
    if not _mask_is_clique(clique_mask, rows):
        raise ValueError("input is not a clique")
    k = len(members)
    prefix = [~0] * (k + 1)
    suffix = [~0] * (k + 1)
    for i, v in enumerate(members):
        prefix[i + 1] = prefix[i] & rows[v]
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] & rows[members[i]]
    if prefix[k] & ~clique_mask:
        raise ValueError("input clique is not maximal")
    for i, l1 in enumerate(members):
        inter_base = prefix[i] & suffix[i + 1]
        for l2 in bits_of(inter_base & ~clique_mask):
            if not (inter_base & rows[l2] & ~(clique_mask & ~(1 << l1) | (1 << l2))):
                return True
    return False


# -- geometric classification -------------------------------------------------


@dataclass
class GeometricFamilies:
    """Geometric clique families of a spine space, ready for matching.

    flats: full line set of every plane.
    semibundles: lines of a >=3-dimensional strong subspace through one
        closure point, split by whether the vertex is proper.
    rho_semiflats: the maximal-clique semiflats of the proper-pencil
        relation (projective flats, punctured choices, filtered selectors).
    """

    flat_by_lines: dict[frozenset[int], int]
    semibundle_by_lines: dict[frozenset[int], tuple[int, int]]
    plane_kinds: dict[int, str]
    plane_lines: dict[int, frozenset[int]]
    planes_by_line: dict[int, list[int]]
    rho_semiflats: set[frozenset[int]]
    pi_family: set[frozenset[int]]
    rho_family: set[frozenset[int]]


def geometric_families(space: SpineSpace) -> GeometricFamilies:
    planes = space.planes()
    flat_by_lines = {frozenset(p.line_ids): p.id for p in planes}
    plane_kinds = {p.id: p.kind for p in planes}
    plane_lines = {p.id: frozenset(p.line_ids) for p in planes}
    planes_by_line: dict[int, list[int]] = {}
    for p in planes:
        for lid in p.line_ids:
            planes_by_line.setdefault(lid, []).append(p.id)

    semibundle_by_lines = {
        lines: key for key, lines in space.semibundles(min_p_dim=3).items()
    }

    rho_semiflats: set[frozenset[int]] = set()
    for p in planes:
        if p.kind == PLANE_PROJECTIVE:
            rho_semiflats.add(frozenset(p.line_ids))
        elif p.kind == PLANE_PUNCTURED:
            affine = [l for l in p.line_ids if space.lines[l].kind == LINE_AFFINE]
            projective = frozenset(l for l in p.line_ids if l not in set(affine))
            for a in affine:
                rho_semiflats.add(projective | {a})
        else:
            rho_semiflats.update(_maximal_selectors(space, p))

    pi_family = set(flat_by_lines) | set(semibundle_by_lines)
    rho_family = set(rho_semiflats) | {
        lines
        for lines, (sid, g) in semibundle_by_lines.items()
        if g in space.pid_of_gid
    }
    return GeometricFamilies(
        flat_by_lines, semibundle_by_lines, plane_kinds, plane_lines,
        planes_by_line, rho_semiflats, pi_family, rho_family,
    )


def _maximal_selectors(space: SpineSpace, plane) -> list[frozenset[int]]:
    """Direction selectors of an affine plane that are maximal cliques.

    A selector picks one line per parallel direction.  A selector whose
    lines all pass through one proper point is the pencil at that point and
    extends into the ambient strong subspace whenever the plane sits inside
    one of dimension >= 3; those selectors are dropped.
    """
    groups: dict[int, list[int]] = {}
    for lid in plane.line_ids:
        groups.setdefault(space.lines[lid].improper_gid, []).append(lid)
    if plane.side == "star":
        host = space.star_id_by_h.get(plane.low.rows)
    else:
        host = space.top_id_by_b.get(plane.high.rows)
    extendable = host is not None and space.strongs[host].p_dim >= 3
    out = []
    for combo in itertools.product(*(groups[d] for d in sorted(groups))):
        common = set(space.lines[combo[0]].closure_gids)
        for lid in combo[1:]:
            common &= set(space.lines[lid].closure_gids)
        concurrent_proper = any(g in space.pid_of_gid for g in common)
        if concurrent_proper and extendable:
            continue
        out.append(frozenset(combo))
    return out


def family_to_json(space: SpineSpace, graph, family: CliqueFamily,
                   fams: GeometricFamilies, with_exchange: bool = False) -> list[dict]:
    """Clique family as JSON rows: sorted lines, kind tag, geometric witness."""
    rows = []
    for mem, mask in zip(family.members, family.masks):
        kind, witness = classify_clique(mem, space, fams)
        row = {"lines": list(mem), "kind": kind, "witness": witness}
        if with_exchange:
            row["exchange"] = podmianka(mask, graph)
        rows.append(row)
    return rows


def classify_clique(members, space: SpineSpace, fams: GeometricFamilies):
    """Match a clique against the geometric families.

    Returns (kind, witness): witness is a plane id for flats and semiflats,
    a (strong id, vertex gid) pair for semibundles, None when unclassified.
    """
    lines = frozenset(members)
    if lines in fams.semibundle_by_lines:
        sid, g = fams.semibundle_by_lines[lines]
        proper = g in space.pid_of_gid
        return (KIND_SEMIBUNDLE_PROPER if proper else KIND_SEMIBUNDLE_IMPROPER, (sid, g))
    if lines in fams.flat_by_lines:
        pid = fams.flat_by_lines[lines]
        if fams.plane_kinds[pid] == PLANE_PROJECTIVE:
            return (KIND_PROJECTIVE_FLAT, pid)
        return (KIND_FLAT, pid)
    candidates = None
    for lid in lines:
        plist = set(fams.planes_by_line.get(lid, ()))
        candidates = plist if candidates is None else candidates & plist
        if not candidates:
            break
    for pid in sorted(candidates or ()):
        kind = fams.plane_kinds[pid]
        if kind == PLANE_PUNCTURED:
            affine = {l for l in fams.plane_lines[pid] if space.lines[l].kind == LINE_AFFINE}
            projective = fams.plane_lines[pid] - affine
            if projective <= lines and len(lines & affine) == 1 and lines <= fams.plane_lines[pid]:
                return (KIND_PUNCTURED_SEMIFLAT, pid)
        elif kind == PLANE_AFFINE:
            directions = {space.lines[l].improper_gid for l in fams.plane_lines[pid]}
            if lines <= fams.plane_lines[pid] and len(lines) == len(directions) and \
                    len({space.lines[l].improper_gid for l in lines}) == len(lines):
                return (KIND_AFFINE_SEMIFLAT, pid)
    return (KIND_UNCLASSIFIED, None)
