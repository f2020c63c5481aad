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

`geometric_families` generates the flats, semiflats and semibundles of a
spine space and records each line set's kind and geometric witness as it
goes; `classify_clique` looks a clique up in that one table, and the pi and
rho families are its members of the relation's kinds.

Every line set, abstract or geometric, crosses function boundaries as its
ascending line-id tuple: families keep them, `bron_kerbosch` returns them,
`podmianka` takes them, `GeometricFamilies` keys its kinds by them.  Kernels
build bitmasks over line ids (`graph.mask_of`, the relation rows) inside a
call and drop them on return; a tuple a family keeps comes from
`graph.members_of`, so it holds the graph's shared id objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .relations import RHO, LineRelationGraph, bits_of
from .spine import LINE_AFFINE, PLANE_PROJECTIVE, PLANE_PUNCTURED, SpineSpace

KIND_PROJECTIVE_FLAT = "projective-flat"
KIND_FLAT = "flat"
KIND_PUNCTURED_SEMIFLAT = "punctured-semiflat"
KIND_AFFINE_SEMIFLAT = "affine-semiflat"
KIND_SEMIBUNDLE_PROPER = "semibundle-proper"
KIND_SEMIBUNDLE_IMPROPER = "semibundle-improper"
KIND_UNCLASSIFIED = "unclassified"


def _mask_is_clique(mask: int, rows: list[int]) -> bool:
    # top bit down, testing containment by equality: no full-width negation
    m = mask
    while m:
        v = m.bit_length() - 1
        low = 1 << v
        m ^= low
        if (mask & rows[v]) | low != mask:
            return False
    return True


def is_maximal_clique(members, graph: LineRelationGraph) -> bool:
    """The line ids `members` are pairwise related and no line relates to
    all of them (the relation is irreflexive, so no member does)."""
    return (_mask_is_clique(graph.mask_of(members), graph.rows)
            and not graph.common_neighbors(members))


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


@dataclass
class LineSetFamily:
    """Line sets (cliques or pencils) of one relation graph, sorted by ids.

    `members[i]` holds the sorted line ids of set i, over `count` lines.
    `by_line[l]` lists the indexes of the sets containing line l, ascending;
    it is built on first read and kept (readers intersect it through a
    temporary set: a stored set per line takes about four times the memory
    of the list).  Clique families are read by line; the pipeline never
    reads a pencil family that way, so it never builds that index.  A clique
    family is `family_K`'s: spanned cliques only, each the span of some
    triple.  On a proper-pencil graph it also has `exchange[i]`, the
    `podmianka` flag of clique i.  No family keeps masks: a clique has a
    few lines, a pencil q + 1, and a mask as wide as the universe would cost
    hundreds of bytes for each; readers build `graph.mask_of(members[i])`
    when they need one.
    """

    members: list[tuple[int, ...]]
    count: int
    exchange: list[bool] | None = None

    @cached_property
    def by_line(self) -> list[list[int]]:
        by_line: list[list[int]] = [[] for _ in range(self.count)]
        for idx, mem in enumerate(self.members):
            for l in mem:
                by_line[l].append(idx)
        return by_line


def family_K(graph: LineRelationGraph) -> LineSetFamily:
    """All cliques spanned by positive triples, found by edge iteration.

    For every related pair (i, j) each common neighbour k > j is tested; a
    positive triple contributes its span.  Every spanned clique contains a
    positive triple, whose two smallest members form a scanned edge, so the
    scan is exhaustive.

    A third line k that some already-found clique through i and j contains
    is skipped: the span of a positive triple is the only maximal clique
    containing it, so a covered triple either does not span or spans a
    clique already found.  On a proper-pencil graph each clique also gets
    its exchange flag.

    Found cliques are kept as member tuples.  At line i one dict maps each
    later line j of the found cliques through i to the union, as a mask, of
    those holding j too; it lives while the scan is at line i.
    """
    rows = graph.rows
    n = graph.count
    found: set[tuple[int, ...]] = set()
    at_line: list[list[tuple[int, ...]]] = [[] for _ in range(n)]  # found cliques per line
    for i in range(n):
        ri = rows[i]
        covers: dict[int, int] = {}  # j -> the found cliques holding i and j, united
        for mem in at_line[i]:
            mask = graph.mask_of(mem)
            for j in mem:
                if j > i:
                    covers[j] = covers.get(j, 0) | mask
        for j in bits_of(ri >> (i + 1) << (i + 1)):
            covered = covers.get(j, 0)
            common_ij = ri & rows[j]
            above_j = common_ij >> (j + 1) << (j + 1)
            for k in bits_of(above_j ^ (above_j & covered)):
                if covered >> k & 1:
                    continue
                common = common_ij & rows[k]
                if not _mask_is_clique(common, rows):
                    continue
                mask = common | (1 << i) | (1 << j) | (1 << k)
                mem = graph.members_of(mask)
                found.add(mem)
                covered |= mask
                for l in mem:
                    if l > i:
                        at_line[l].append(mem)
                    if l > j:
                        covers[l] = covers.get(l, 0) | mask
    family = LineSetFamily(sorted(found), n)
    if graph.delta_kind == RHO:
        family.exchange = [podmianka(mem, graph) for mem in family.members]
    return family


BK_MAX_LINES = 5000  # the largest line universe handed to the Bron-Kerbosch oracle


def bron_kerbosch(graph: LineRelationGraph) -> list[tuple[int, ...]]:
    """All maximal cliques as sorted tuples of line ids, in sorted order, by
    one pivoting Bron-Kerbosch recursion over all lines at once.

    Each call branches on the candidates outside the neighbourhood of a
    pivot of most candidate neighbours (Tomita, Tanaka and Takahashi 2006).
    A graph without lines has no cliques: the empty set is not reported.
    Raises above `BK_MAX_LINES` lines, against accidental use on large
    universes.
    """
    n = graph.count
    if n > BK_MAX_LINES:
        raise ValueError(f"{n} lines exceeds the Bron-Kerbosch cap of {BK_MAX_LINES}")
    if not n:
        return []
    rows = graph.rows
    out: list[int] = []

    def expand(r_mask: int, p_mask: int, x_mask: int):
        if not p_mask and not x_mask:
            out.append(r_mask)
            return
        pux = p_mask | x_mask
        best_u, best_count = -1, -1
        for u in bits_of(pux):
            c = (p_mask & rows[u]).bit_count()
            if c > best_count:
                best_count, best_u = c, u
        for v in bits_of(p_mask ^ (p_mask & rows[best_u])):
            low = 1 << v
            expand(r_mask | low, p_mask & rows[v], x_mask & rows[v])
            p_mask ^= low
            x_mask |= low

    expand(0, (1 << n) - 1, 0)
    return sorted(graph.members_of(m) for m in out)


def podmianka(members: tuple[int, ...], graph: LineRelationGraph) -> bool:
    """Single-line exchange test on a maximal clique.

    True iff removing one member and inserting some outside line yields a
    different maximal clique of the same relation.  For q >= 3 this holds
    exactly for the semiaffine semiflats: projective flats and proper
    semibundles have a unique completion.  Over GF(2) an affine semiflat is
    a three-line direction selector of AG(2,2); swapping one of its lines
    for that line's parallel makes the three lines concurrent, and the
    concurrent triple extends into the ambient semibundle, so no swap gives
    a maximal clique and the test is False there.  `members` are the
    clique's line ids.  Raises when they are not a maximal clique.
    """
    rows = graph.rows
    clique_mask = graph.mask_of(members)
    if not _mask_is_clique(clique_mask, rows):
        raise ValueError("input is not a clique")
    k = len(members)
    # prefix[i] / suffix[i]: lines related to every member before / from i
    everything = (1 << graph.count) - 1
    prefix = [everything] * (k + 1)
    suffix = [everything] * (k + 1)
    for i, v in enumerate(members):
        prefix[i + 1] = prefix[i] & rows[v]
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] & rows[members[i]]
    if prefix[k]:  # a common neighbour of a clique is outside it
        raise ValueError("input clique is not maximal")
    for i, l1 in enumerate(members):
        inter_base = prefix[i] & suffix[i + 1]
        for l2 in bits_of(inter_base ^ (inter_base & clique_mask)):
            # the swap is a maximal clique iff no line relates to all of it
            if not inter_base & rows[l2]:
                return True
    return False


# -- geometric classification -------------------------------------------------

# the kinds that are maximal cliques of pi, resp. of rho
PI_KINDS = frozenset({KIND_PROJECTIVE_FLAT, KIND_FLAT,
                      KIND_SEMIBUNDLE_PROPER, KIND_SEMIBUNDLE_IMPROPER})
RHO_KINDS = frozenset({KIND_PROJECTIVE_FLAT, KIND_PUNCTURED_SEMIFLAT,
                       KIND_AFFINE_SEMIFLAT, KIND_SEMIBUNDLE_PROPER})


@dataclass
class GeometricFamilies:
    """The geometric maximal cliques of a spine space, with their kinds.

    kind_of: every flat, semiflat and semibundle (of a strong subspace of
        dimension >= 3), as its line-id tuple, to its (kind, witness); the
        witness is a plane id for flats and semiflats, a (strong id, vertex
        gid) pair for semibundles.
    pi_family, rho_family: the line-id tuples of `kind_of` whose kind is in
        `PI_KINDS` (the flats and every semibundle), resp. `RHO_KINDS` (the
        projective flats, punctured choices, filtered selectors and the
        semibundles at a proper vertex).
    """

    kind_of: dict[tuple[int, ...], tuple[str, object]]
    pi_family: set[tuple[int, ...]]
    rho_family: set[tuple[int, ...]]


def geometric_families(space: SpineSpace) -> GeometricFamilies:
    """Every geometric clique family of `space`, each line set recorded with
    its kind as it is generated."""
    kind_of: dict[tuple[int, ...], tuple[str, object]] = {}
    for p in space.planes():
        lines = p.line_ids
        if p.kind == PLANE_PROJECTIVE:
            kind_of[lines] = (KIND_PROJECTIVE_FLAT, p.id)
            continue
        kind_of[lines] = (KIND_FLAT, p.id)
        if p.kind == PLANE_PUNCTURED:
            affine = [l for l in lines if space.lines[l].kind == LINE_AFFINE]
            for a in affine:
                semiflat = tuple(l for l in lines if l == a or l not in affine)
                kind_of[semiflat] = (KIND_PUNCTURED_SEMIFLAT, p.id)
        else:
            for selector in _maximal_selectors(space, p):
                kind_of[selector] = (KIND_AFFINE_SEMIFLAT, p.id)
    for key, lines in space.semibundles(min_p_dim=3).items():
        proper = key[1] in space.pid_of_gid
        kind_of[lines] = (KIND_SEMIBUNDLE_PROPER if proper else KIND_SEMIBUNDLE_IMPROPER, key)
    return GeometricFamilies(
        kind_of,
        {lines for lines, (kind, _) in kind_of.items() if kind in PI_KINDS},
        {lines for lines, (kind, _) in kind_of.items() if kind in RHO_KINDS},
    )


def _maximal_selectors(space: SpineSpace, plane) -> list[tuple[int, ...]]:
    """Direction selectors of an affine plane that are maximal cliques.

    A selector picks one line per parallel direction.  A selector whose
    lines all pass through one proper point is the pencil at that point and
    extends into the ambient strong subspace whenever the plane sits inside
    one of dimension >= 3; those selectors are dropped.
    """
    groups: dict[int, list[int]] = {}
    for lid in plane.line_ids:
        groups.setdefault(space.lines[lid].improper_gid, []).append(lid)
    host = (space.star_of_line if plane.side == "star" else space.top_of_line)[plane.line_ids[0]]
    extendable = host is not None and space.strongs[host].p_dim >= 3
    out = []
    for combo in itertools.product(*(groups[d] for d in sorted(groups))):
        # concurrent at a proper point: every line passes through one of the first's
        if extendable and any(all(lid in space.lines_through[g] for lid in combo[1:])
                              for g in space.lines[combo[0]].closure_gids
                              if g in space.pid_of_gid):
            continue
        out.append(tuple(sorted(combo)))
    return out


def family_to_json(cliques, fams: GeometricFamilies,
                   exchange: list[bool] | None = None) -> list[dict]:
    """Cliques (line-id tuples) as JSON rows sorted by line ids: lines, kind
    tag, geometric witness, and the exchange flag when `exchange` gives one."""
    flags = exchange if exchange is not None else [None] * len(cliques)
    rows = []
    for mem, flag in sorted(zip(cliques, flags)):
        kind, witness = classify_clique(mem, fams)
        row = {"lines": list(mem), "kind": kind, "witness": witness}
        if exchange is not None:
            row["exchange"] = flag
        rows.append(row)
    return rows


def classify_clique(members, fams: GeometricFamilies):
    """The (kind, witness) `fams.kind_of` records for the line set `members`,
    in any order, or (KIND_UNCLASSIFIED, None) when it is no geometric clique."""
    return fams.kind_of.get(tuple(sorted(members)), (KIND_UNCLASSIFIED, None))
