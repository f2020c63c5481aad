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

The disjoint-pencil rule also marks its plane affine.  On the 81 grid
configurations with at most 6 000 lines (every valid one with q = 2 and
n <= 6 or q = 3 and n <= 5, and (5,4,2,1,2)) that mark changes no output:
a variant without it gives every parallel set unchanged, and only
`test_detect_parallel_marks_the_affine_planes_of_both_rules`, on a
hand-built relation, tells the two apart.  The mark stays for relations
that do not come from a spine space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cliques import LineSetFamily, _mask_is_clique
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


def p_rho(l1: int, l2: int, l3: int, graph: LineRelationGraph,
          family: LineSetFamily) -> bool:
    """Ternary concurrency for the common-pencil relation.

    The triple qualifies iff it does not span, and some spanned,
    exchange-free clique contains all three lines.  `family` is the graph's
    spanned clique family, `family_K(graph)`, with its exchange flags: every
    spanned clique and nothing else.  Both halves are then lookups: the
    triple must lie in an exchange-free clique of the family, and it spans
    iff it lies in exactly one clique C of the family and its common
    neighbourhood lies inside C (see `family_P`).  The rest of C is common
    to the three lines and the relation is irreflexive, so that holds iff
    the common neighbourhood has exactly len(C) - 3 lines.

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
    by_line, exchange = family.by_line, family.exchange
    hits = set(by_line[l1]).intersection(by_line[l2], by_line[l3])
    if all(exchange[c] for c in hits):
        return False
    if len(hits) > 1:  # a spanning triple lies in one maximal clique only
        return True
    (c,) = hits
    common = rows[l1] & rows[l2] & rows[l3]
    return common.bit_count() != len(family.members[c]) - 3


def family_P(graph: LineRelationGraph, family: LineSetFamily) -> LineSetFamily:
    """Close ternary concurrency into full pencils.

    Two related lines determine at most one pencil, so the closure of a pair
    under "third lines concurrent with both" either has fewer than three
    members (no recoverable pencil through the pair) or is the full pencil.
    Each related pair that no found pencil covers is closed once.  Each
    later line keeps the list of found pencils through it, and at line i
    their union is the set of lines already paired with i; the family keeps
    only each pencil's line ids.  The tests close every pair of every pencil
    with the literal predicates to check maximality and consistency.

    `family` is the graph's spanned clique family, `family_K(graph)`: every
    spanned clique and nothing else, with exchange flags on the
    proper-pencil relation.  A pair (i, j) is closed from its common
    neighbourhood ``cij`` and the family cliques through it.  At line i one
    table maps each later line j to the cliques through i and j, and each
    clique's mask is built at most once, when a pair first needs it; the
    table goes after line i, so no mask is kept across lines (a mask per
    clique of the family would cost megabytes on the larger spaces).  The
    tests below are exact because the span of a spanning triple is the only
    maximal clique containing it, and so the only family clique that does.

    - Spanning, for a third line k in ``cij``: a k in no family clique
      through the pair, or in two of them, does not span with it.  A k in
      exactly one, C, spans iff its common neighbourhood lies in C (C is a
      clique through the triple, so the rest of C is common to all three),
      so k is kept iff ``rows[k]`` meets ``cij`` outside C.  For coplanarity
      that is the whole test of `p_pi`.
    - For the proper-pencil relation `p_rho` also asks for an exchange-free
      clique holding the triple, so only the k inside such a clique through
      the pair are candidates.
    - Hence no k of C is kept when ``cij`` lies inside C: those tests are
      skipped, and the whole pair when C is its only clique.
    """
    rows = graph.rows
    clique_members, at_line = family.members, family.by_line
    exchange = family.exchange if graph.delta_kind == RHO else None
    n = graph.count
    pencils_at: list[list[tuple[int, ...]]] = [[] for _ in range(n)]  # found, per later line
    found: set[tuple[int, ...]] = set()
    for i in range(n):
        covered = {l for mem in pencils_at[i] for l in mem}  # lines a found pencil pairs with i
        pencils_at[i] = []
        # j > i -> the cliques through i and j, each as one [clique, mask] entry
        # shared by its lines, whose mask (0 until then) is built on first use
        through_at: dict[int, list[list[int]]] = {}
        for c in at_line[i]:
            entry = [c, 0]
            for j in clique_members[c]:
                if j > i:
                    through_at.setdefault(j, []).append(entry)
        for j in bits_of(rows[i] >> (i + 1) << (i + 1)):
            if j in covered:
                continue
            through = through_at.get(j, ())
            for entry in through:
                if not entry[1]:
                    entry[1] = graph.mask_of(clique_members[entry[0]])
            cij = rows[i] & rows[j]
            if len(through) == 1 and cij & through[0][1] == cij:
                continue  # every third line is in the one clique, spanning nothing with it
            cand = cij
            if exchange is not None:
                reach = 0
                for c, m in through:
                    if not exchange[c]:
                        reach |= m
                cand &= reach
                if not cand:
                    continue
            once = twice = 0  # lines in at least one / two cliques through i, j
            for _, m in through:
                twice |= once & m
                once |= m
            single = (cand & once) ^ (cand & twice)  # twice lies inside once
            keep = cand ^ single
            for _, m in through:
                inside = single & m
                if not inside:
                    continue
                outside = cij ^ (cij & m)
                if not outside:
                    continue
                for k in bits_of(inside):
                    if rows[k] & outside:
                        keep |= 1 << k
            if not keep:
                continue
            members = graph.members_of(keep | 1 << i | 1 << j)
            found.add(members)
            covered.update(members)
            for l in members:
                if l > i:
                    pencils_at[l].append(members)
    return LineSetFamily(sorted(found), n)


def _local_masks(members, line_sets) -> list[int]:
    """Each of `line_sets` (ids among `members`) as a mask local to
    `members`: bit i stands for the i-th smallest member."""
    position = {l: i for i, l in enumerate(sorted(members))}
    out = []
    for lines in line_sets:
        m = 0
        for l in lines:
            m |= 1 << position[l]
        out.append(m)
    return out


def clique_dimension(members, pencils_inside) -> int:
    """Projective dimension of the point-line structure a clique carries.

    Points are the clique's lines `members`, lines are the recovered
    pencils inside it, given by their line ids.  The dimension is the length
    of a greedy spanning chain: starting from one point, repeatedly adjoin
    the smallest point outside the span and close under pencils with two
    members already in the span.  Planes come out as 2, a semibundle as one
    less than its host's dimension.  The chain runs on masks local to the
    clique, whose bit order is the order of the line ids.
    """
    if not pencils_inside:
        raise ValueError("clique carries no recovered pencil")
    pencil_list = _local_masks(members, pencils_inside)
    full = (1 << len(members)) - 1
    span = 1
    dim = 0
    while span != full:
        rest = full ^ span
        span |= rest ^ (rest & (rest - 1))  # the smallest point outside the span
        dim += 1
        changed = True
        while changed:
            changed = False
            for pm in pencil_list:
                inter = pm & span
                if inter != pm and inter.bit_count() >= 2:
                    span |= pm
                    changed = True
    return dim


@dataclass
class LineGeometry:
    """Everything the abstract pipeline derives from one relation graph.

    A pencil index is one int object wherever it occurs: in
    `pencils_in_clique`, `parallel_pencils` and `proper_pencils`.
    """

    graph: LineRelationGraph
    cliques: LineSetFamily               # with exchange flags on rho graphs
    pencils: LineSetFamily
    pencils_in_clique: list[list[int]]   # pencil indexes inside each clique
    clique_dims: list[int | None]        # None when the clique has no pencil
    parallel_pencils: set[int]           # pencil indexes, pi graphs only
    proper_pencils: list[int]            # pencil indexes forming P0
    bundle_cliques: list[int]            # cliques holding a P0 pencil, of dimension >= 3


def detect_parallel(pencils: LineSetFamily, graph: LineRelationGraph,
                    cliques: LineSetFamily, pencils_in_clique, clique_dims) -> set[int]:
    """Improper-vertex pencils of a coplanarity graph (see module docstring).

    Scope: over GF(2), a 3-dimensional strong subspace slit by a line makes
    the semibundle at a removed point carry the same lines-and-pencils
    structure as an affine plane, and no test confined to the relation can
    tell them apart; on such configurations some improper-vertex pencils
    survive.  The recovery checks report this instead of asserting.
    """
    plane_cliques = [i for i, d in enumerate(clique_dims) if d == 2]

    # two disjoint pencils of a plane are both parallel and make it affine;
    # the plane's pencils are masks local to it.  The pencils and lines of
    # an affine plane are marked as it is decided.
    parallel: set[int] = set()
    pencil_on_affine = [False] * len(pencils.members)
    line_on_affine = [False] * graph.count
    for ci in plane_cliques:
        inside = pencils_in_clique[ci]
        plane = cliques.members[ci]
        local = _local_masks(plane, [pencils.members[p] for p in inside])
        flag = False
        for (a, ma), (b, mb) in itertools.combinations(zip(inside, local), 2):
            if not ma & mb:
                parallel.update((a, b))
                flag = True
        if not flag:
            # a related pair of the plane missed by every pencil of the plane
            # signals parallel lines whose pencil is too small to recover;
            # covered[x] is the union of the plane's pencils through line x
            covered = [0] * len(plane)
            for pm in local:
                for x in bits_of(pm):
                    covered[x] |= pm
            full = (1 << len(plane)) - 1
            flag = any(cov != full for cov in covered)
        if flag:
            for pi_idx in inside:
                pencil_on_affine[pi_idx] = True
                for l in pencils.members[pi_idx]:
                    line_on_affine[l] = True

    # a pencil on planes, none of them affine, whose lines all lie on affine planes
    for ci in plane_cliques:
        for pi_idx in pencils_in_clique[ci]:
            if pi_idx in parallel or pencil_on_affine[pi_idx]:
                continue
            if all(line_on_affine[l] for l in pencils.members[pi_idx]):
                parallel.add(pi_idx)
    return parallel


def derive_line_geometry(graph: LineRelationGraph, cliques: LineSetFamily) -> LineGeometry:
    """Run the abstract pipeline on a relation graph and its clique family.

    `cliques` is the graph's spanned clique family, `family_K(graph)`.
    Cliques and pencils are recovered from adjacency alone; pencils with an
    improper vertex are discarded (directly for a proper-pencil graph, via
    `detect_parallel` for a coplanarity graph); cliques carrying a surviving
    pencil get an abstract dimension; those of dimension at least three form
    the semibundle family handed to bundle reconstruction.

    The pencils are numbered once, so every list of pencil indexes holds the
    same int object for each (`enumerate` and `range` would each make their
    own object for every index above 256).
    """
    pencils = family_P(graph, cliques)

    indexes = list(range(len(pencils.members)))

    # the cliques holding a pencil are those through each of its lines
    at_line = cliques.by_line
    pencils_in_clique: list[list[int]] = [[] for _ in cliques.members]
    for pi_idx, mem in zip(indexes, pencils.members):
        for ci in set(at_line[mem[0]]).intersection(*(at_line[l] for l in mem[1:])):
            pencils_in_clique[ci].append(pi_idx)

    clique_dims: list[int | None] = []
    for ci, mem in enumerate(cliques.members):
        inside = [pencils.members[p] for p in pencils_in_clique[ci]]
        clique_dims.append(clique_dimension(mem, inside) if inside else None)

    if graph.delta_kind == PI:
        parallel = detect_parallel(pencils, graph, cliques, pencils_in_clique, clique_dims)
    else:
        parallel = set()
    proper = [i for i in indexes if i not in parallel]
    bundle_cliques = [
        ci for ci, d in enumerate(clique_dims)
        if d is not None and d >= 3 and any(p not in parallel for p in pencils_in_clique[ci])
    ]
    return LineGeometry(graph, cliques, pencils, pencils_in_clique,
                        clique_dims, parallel, proper, bundle_cliques)


def family_B(geometry: LineGeometry) -> list[tuple[int, ...]]:
    """The abstract semibundle family (cliques of dimension >= 3), as the
    cliques' sorted line ids."""
    members = geometry.cliques.members
    return [members[ci] for ci in geometry.bundle_cliques]


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
