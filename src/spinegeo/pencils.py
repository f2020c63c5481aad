"""Abstract recovery of line pencils from a bare line relation.

Everything in this module consumes only a `LineRelationGraph` (ids plus
adjacency): ternary concurrency predicates, the pencil family they
generate, coplanarity of pencils, elimination of improper-vertex
("parallel") pencils, the abstract dimension of a clique, and the filter
that isolates the high-dimensional proper semibundles used for point
reconstruction.  `derive_line_geometry` chains all of it.

Parallel-pencil elimination works plane by plane.  A dimension-2 clique
plays the role of a plane; it is recognised as affine when it either
carries two disjoint recovered pencils (enough field elements make the
improper-vertex pencils visible) or carries a related line pair through
which no recovered pencil of the plane passes (the two-element pencils of
a small field are invisible to ternary concurrency).  A recovered pencil
is improper-vertex iff it is disjoint from another pencil on a common
plane, or none of its planes is affine while each of its lines lies on an
affine plane.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cliques import CliqueFamily, _mask_is_clique, family_K, podmianka
from .relations import PI, RHO, LineRelationGraph, bits_of


def p_pi(l1: int, l2: int, l3: int, graph: LineRelationGraph) -> bool:
    """Ternary concurrency for coplanarity: pairwise related, not spanning."""
    rows = graph.rows
    if len({l1, l2, l3}) != 3:
        return False
    if not (rows[l1] >> l2 & 1 and rows[l1] >> l3 & 1 and rows[l2] >> l3 & 1):
        return False
    common = rows[l1] & rows[l2] & rows[l3]
    return not _mask_is_clique(common, rows)


@dataclass
class RhoCliqueIndex:
    """Spanned cliques of a proper-pencil graph with their exchange flags.

    `witness[c]` marks the certified, exchange-free cliques, the ones that
    make a non-spanning triple inside them concurrent; `at_line[l]` is the
    set of clique indexes containing line l.
    """

    family: CliqueFamily
    exchange: list[bool]  # podmianka per clique
    witness: list[bool] = field(init=False, repr=False)
    at_line: list[set[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.witness = [cert is not None and not ex
                        for cert, ex in zip(self.family.certificates, self.exchange)]
        self.at_line = [set(c) for c in self.family.by_line]

    @classmethod
    def build(cls, graph: LineRelationGraph, family: CliqueFamily | None = None):
        if family is None:
            family = family_K(graph)
        flags = [podmianka(m, graph) for m in family.masks]
        return cls(family, flags)


def p_rho(l1: int, l2: int, l3: int, graph: LineRelationGraph,
          cliques: RhoCliqueIndex | None = None) -> bool:
    """Ternary concurrency for the common-pencil relation.

    The triple qualifies iff it does not span, and some spanned,
    exchange-free clique contains all three lines.  With a prebuilt clique
    index both halves are lookups: the triple must lie in a witness clique,
    and it spans iff it lies in exactly one clique of the family and its
    common neighbourhood lies inside that clique (see `family_P`; exact when
    the family holds every spanned clique and only maximal cliques, as
    `family_K` does).  Without an index the witness triple is searched among
    the lines related to all three (any containing clique lives there), so
    the two paths agree.

    Recovering the proper pencils on affine planes needs q >= 3.  Over GF(2)
    such a pencil is three lines, one per direction of AG(2,2), and that
    triple spans (`delta_n` holds), so this predicate is False on it by
    definition and the pencil is never recovered.
    """
    if len({l1, l2, l3}) != 3:
        return False
    rows = graph.rows
    if not (rows[l1] >> l2 & 1 and rows[l1] >> l3 & 1 and rows[l2] >> l3 & 1):
        return False
    if cliques is not None:
        at_line = cliques.at_line
        hits = at_line[l1].intersection(at_line[l2], at_line[l3])
        if not any(cliques.witness[c] for c in hits):
            return False
        if len(hits) > 1:  # a spanning triple lies in one maximal clique only
            return True
        (c,) = hits
        return bool(rows[l1] & rows[l2] & rows[l3] & ~cliques.family.masks[c])
    common = rows[l1] & rows[l2] & rows[l3]
    if _mask_is_clique(common, rows):  # the triple itself spans
        return False
    # literal witness search: candidate generators must relate to (or equal)
    # each of l1, l2, l3
    triple_mask = (1 << l1) | (1 << l2) | (1 << l3)
    cand_mask = ((rows[l1] | 1 << l1) & (rows[l2] | 1 << l2) & (rows[l3] | 1 << l3))
    cands = list(bits_of(cand_mask | triple_mask))
    seen_spans = set()
    for m1, m2, m3 in itertools.combinations(cands, 3):
        gen_common = rows[m1] & rows[m2] & rows[m3]
        if not (rows[m1] >> m2 & 1 and rows[m1] >> m3 & 1 and rows[m2] >> m3 & 1):
            continue
        if not _mask_is_clique(gen_common, rows):
            continue
        span = gen_common | (1 << m1) | (1 << m2) | (1 << m3)
        if span & triple_mask != triple_mask or span in seen_spans:
            continue
        seen_spans.add(span)
        if not podmianka(span, graph):
            return True
    return False


@dataclass
class PencilFamily:
    """Recovered pencils: maximal sets in which every triple is concurrent."""

    delta_kind: str
    masks: list[int]
    members: list[tuple[int, ...]]
    by_line: list[list[int]]


def _pencil_closure(i: int, j: int, graph, test) -> int:
    mask = (1 << i) | (1 << j)
    for k in bits_of(graph.rows[i] & graph.rows[j]):
        if test(k, i, j):
            mask |= 1 << k
    return mask


def family_P(graph: LineRelationGraph, family: CliqueFamily | None = None,
             exchange: list[bool] | None = None) -> PencilFamily:
    """Close ternary concurrency into full pencils.

    Two related lines determine at most one pencil, so the closure of a pair
    under "third lines concurrent with both" either has fewer than three
    members (no recoverable pencil through the pair) or is the full pencil.
    Each related pair that no found pencil covers is closed once; coverage
    is one bitmask per line.  Maximality and consistency of every inner
    triple are checked by `verify_pencils` (exercised in the test suite).

    `family` is the graph's `family_K` (built when not given) and `exchange`
    its `podmianka` flags, used for the proper-pencil relation (computed
    when not given).  A pair (i, j) is closed from its common neighbourhood
    ``cij`` and the family cliques through it.  The tests below are exact
    whenever the family's masks are maximal cliques that include every
    spanned clique, as `family_K`'s are: the span of a spanning triple is
    then the only family clique containing it.

    - Spanning, for a third line k in ``cij``: a k in no family clique
      through the pair, or in two of them, does not span with it.  A k in
      exactly one, C, spans iff its common neighbourhood lies in C (C is a
      clique through the triple, so the rest of C is common to all three),
      so k is kept iff ``rows[k] & cij & ~C`` is non-zero.  For coplanarity
      that is the whole test of `p_pi`.
    - For the proper-pencil relation `p_rho` also asks for a certified,
      exchange-free clique holding the triple, so only the k inside such a
      clique through the pair are candidates.
    """
    if family is None:
        family = family_K(graph)
    rows = graph.rows
    clique_masks = family.masks
    if graph.delta_kind == PI:
        at_line = [set(c) for c in family.by_line]
        witness = None
    else:
        if exchange is None:
            exchange = [podmianka(m, graph) for m in clique_masks]
        index = RhoCliqueIndex(family, exchange)
        at_line, witness = index.at_line, index.witness
    n = graph.count
    covered = [0] * n  # bit j of covered[i]: a found pencil holds i and j
    found: set[int] = set()
    for i in range(n):
        at_i = at_line[i]
        for j in bits_of(rows[i] >> (i + 1) << (i + 1) & ~covered[i]):
            if covered[i] >> j & 1:  # found after the loop's mask was taken
                continue
            through = at_i.intersection(at_line[j])
            cij = rows[i] & rows[j]
            cand = cij
            if witness is not None:
                reach = 0
                for c in through:
                    if witness[c]:
                        reach |= clique_masks[c]
                cand &= reach
                if not cand:
                    continue
            once = twice = 0  # lines in at least one / two cliques through i, j
            for c in through:
                twice |= once & clique_masks[c]
                once |= clique_masks[c]
            keep = cand & (twice | ~once)
            single = cand & once & ~twice
            for c in through:
                inside = single & clique_masks[c]
                if not inside:
                    continue
                outside = cij & ~clique_masks[c]
                for k in bits_of(inside):
                    if rows[k] & outside:
                        keep |= 1 << k
            if not keep:
                continue
            mask = keep | 1 << i | 1 << j
            found.add(mask)
            for l in bits_of(mask):
                covered[l] |= mask
    masks = sorted(found, key=lambda m: tuple(bits_of(m)))
    members = [tuple(bits_of(m)) for m in masks]
    by_line: list[list[int]] = [[] for _ in range(n)]
    for idx, mem in enumerate(members):
        for l in mem:
            by_line[l].append(idx)
    return PencilFamily(graph.delta_kind, masks, members, by_line)


def verify_pencils(pencils: PencilFamily, graph: LineRelationGraph,
                   cliques: RhoCliqueIndex | None = None) -> list[str]:
    """Check every recovered pencil is concurrency-closed and maximal."""
    if graph.delta_kind == PI:
        test = lambda k, i, j: p_pi(k, i, j, graph)
    else:
        if cliques is None:
            cliques = RhoCliqueIndex.build(graph)
        test = lambda k, i, j: p_rho(k, i, j, graph, cliques)
    problems = []
    for mask, mem in zip(pencils.masks, pencils.members):
        for i, j in itertools.combinations(mem, 2):
            if _pencil_closure(i, j, graph, test) != mask:
                problems.append(f"pair ({i},{j}) closes to a different set than {mem}")
                break
    return problems


def pencil_coplanar(p1_mask: int, p2_mask: int, graph: LineRelationGraph) -> bool:
    """All-pairs relatedness across two pencils (vacuously including shared lines)."""
    for l in bits_of(p1_mask):
        if p2_mask & ~(graph.rows[l] | (1 << l)):
            return False
    return True


def clique_dimension(members, pencil_masks_inside) -> int:
    """Projective dimension of the point-line structure a clique carries.

    Points are the clique's lines, lines are the recovered pencils inside
    it.  The dimension is the length of a greedy spanning chain: starting
    from one point, repeatedly adjoin the smallest point outside the span
    and close under pencils with two members already in the span.  Planes
    come out as 2, a semibundle as one less than its host's dimension.
    """
    pts = sorted(members)
    if not pencil_masks_inside:
        raise ValueError("clique carries no recovered pencil")
    pencil_list = sorted(pencil_masks_inside)
    span = 1 << pts[0]
    dim = 0
    all_mask = 0
    for p in pts:
        all_mask |= 1 << p
    while span != all_mask:
        nxt = (all_mask & ~span)
        low = nxt & -nxt
        span |= low
        dim += 1
        changed = True
        while changed:
            changed = False
            for pm in pencil_list:
                inter = pm & span
                if inter and inter != pm and inter.bit_count() >= 2:
                    span |= pm
                    changed = True
    return dim


@dataclass
class LineGeometry:
    """Everything the abstract pipeline derives from one relation graph."""

    graph: LineRelationGraph
    cliques: CliqueFamily
    exchange: list[bool] | None          # per clique, rho graphs only
    pencils: PencilFamily
    pencils_in_clique: list[list[int]]   # pencil indexes inside each clique
    clique_dims: list[int | None]        # None when the clique has no pencil
    parallel_pencils: set[int]           # pencil indexes, pi graphs only
    proper_pencils: list[int]            # pencil indexes forming P0
    k0: list[int]                        # clique indexes containing a P0 pencil
    bundle_cliques: list[int]            # K0 members of dimension >= 3


def detect_parallel(pencils: PencilFamily, graph: LineRelationGraph,
                    cliques: CliqueFamily, pencils_in_clique, clique_dims) -> set[int]:
    """Improper-vertex pencils of a coplanarity graph (see module docstring).

    Scope: over GF(2), a 3-dimensional strong subspace slit by a line makes
    the semibundle at a removed point carry the same lines-and-pencils
    structure as an affine plane, and no test confined to the relation can
    tell them apart; on such configurations some improper-vertex pencils
    survive.  The recovery checks report this instead of asserting.
    """
    n_pencils = len(pencils.masks)
    plane_cliques = [i for i, d in enumerate(clique_dims) if d == 2]

    affine_plane: dict[int, bool] = {}
    for ci in plane_cliques:
        inside = pencils_in_clique[ci]
        flag = False
        for a in range(len(inside)):
            for b in range(a + 1, len(inside)):
                if not pencils.masks[inside[a]] & pencils.masks[inside[b]]:
                    flag = True
                    break
            if flag:
                break
        if not flag:
            # a related pair of the plane missed by every pencil of the plane
            # signals parallel lines whose pencil is too small to recover;
            # covered[x] is the union of the plane's pencils through x
            covered = dict.fromkeys(cliques.members[ci], 0)
            for pi_idx in inside:
                pmask = pencils.masks[pi_idx]
                for x in bits_of(pmask):
                    covered[x] |= pmask
            mask = cliques.masks[ci]
            flag = any(mask & ~cov for cov in covered.values())
        affine_plane[ci] = flag

    pencil_on_affine = [False] * n_pencils
    clique_index_by_mask = cliques.index_of()
    pencil_planes: list[list[int]] = [[] for _ in range(n_pencils)]
    for ci in plane_cliques:
        for pi_idx in pencils_in_clique[ci]:
            pencil_planes[pi_idx].append(ci)
            if affine_plane[ci]:
                pencil_on_affine[pi_idx] = True

    line_on_affine = [False] * graph.count
    for pi_idx in range(n_pencils):
        if pencil_on_affine[pi_idx]:
            for l in bits_of(pencils.masks[pi_idx]):
                line_on_affine[l] = True

    parallel: set[int] = set()
    for ci in plane_cliques:
        inside = pencils_in_clique[ci]
        for a in range(len(inside)):
            for b in range(a + 1, len(inside)):
                if not pencils.masks[inside[a]] & pencils.masks[inside[b]]:
                    parallel.add(inside[a])
                    parallel.add(inside[b])
    for pi_idx in range(n_pencils):
        if pi_idx in parallel:
            continue
        planes = pencil_planes[pi_idx]
        if planes and not any(affine_plane[ci] for ci in planes):
            if all(line_on_affine[l] for l in bits_of(pencils.masks[pi_idx])):
                parallel.add(pi_idx)
    return parallel


def derive_line_geometry(graph: LineRelationGraph) -> LineGeometry:
    """Run the whole abstract pipeline on a relation graph.

    Cliques and pencils are recovered from adjacency alone; pencils with an
    improper vertex are discarded (directly for a proper-pencil graph, via
    `detect_parallel` for a coplanarity graph); cliques carrying a surviving
    pencil get an abstract dimension; those of dimension at least three form
    the semibundle family handed to bundle reconstruction.
    """
    cliques = family_K(graph)
    exchange = None
    if graph.delta_kind == RHO:
        exchange = [podmianka(m, graph) for m in cliques.masks]
    pencils = family_P(graph, cliques, exchange)

    # a clique holding a pencil is among the cliques through its first two lines
    pencils_in_clique: list[list[int]] = [[] for _ in cliques.masks]
    for pi_idx, (pmask, mem) in enumerate(zip(pencils.masks, pencils.members)):
        for ci in set(cliques.by_line[mem[0]]).intersection(cliques.by_line[mem[1]]):
            if not pmask & ~cliques.masks[ci]:
                pencils_in_clique[ci].append(pi_idx)

    clique_dims: list[int | None] = []
    for ci, mask in enumerate(cliques.masks):
        inside = [pencils.masks[p] for p in pencils_in_clique[ci]]
        if inside:
            clique_dims.append(clique_dimension(bits_of(mask), inside))
        else:
            clique_dims.append(None)

    if graph.delta_kind == PI:
        parallel = detect_parallel(pencils, graph, cliques, pencils_in_clique, clique_dims)
    else:
        parallel = set()
    proper = [i for i in range(len(pencils.masks)) if i not in parallel]
    proper_set = set(proper)

    k0 = [
        ci
        for ci in range(len(cliques.masks))
        if any(p in proper_set for p in pencils_in_clique[ci])
    ]
    bundle_cliques = [ci for ci in k0 if clique_dims[ci] is not None and clique_dims[ci] >= 3]
    return LineGeometry(graph, cliques, exchange, pencils, pencils_in_clique,
                        clique_dims, parallel, proper, k0, bundle_cliques)


def family_B(geometry: LineGeometry) -> list[int]:
    """Clique masks of the abstract semibundle family (dimension >= 3)."""
    return [geometry.cliques.masks[ci] for ci in geometry.bundle_cliques]


def geometry_to_json(geometry: LineGeometry) -> dict:
    """Pencil and semibundle families keyed by sorted line ids."""
    pencils = geometry.pencils
    return {
        "delta_kind": geometry.graph.delta_kind,
        "pencils": [list(pencils.members[i]) for i in geometry.proper_pencils],
        "parallel_pencils": [
            list(pencils.members[i]) for i in sorted(geometry.parallel_pencils)
        ],
        "semibundle_cliques": [
            list(geometry.cliques.members[ci]) for ci in geometry.bundle_cliques
        ],
    }
