"""Binary line relations: coplanarity and the common-pencil relation.

Two distinct lines are coplanar iff some plane of the spine space contains
both; they are in a common line pencil iff additionally the closures meet
at a proper point.  Distinct pencils of the ambient space share at most
one member, so both relations reduce to a closure-point test: the lines
must share their pencil base H or their pencil span B, and their closures
must intersect (in the proper case, at a proper point).

The abstract side of the package consumes only `LineRelationGraph`: line
ids plus a symmetric irreflexive adjacency, with no geometry attached.
`strip` produces such a graph with ids shuffled by a seeded permutation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .spine import SpineSpace

PI = "pi"
RHO = "rho"


class LineRelationGraph:
    """Symmetric irreflexive adjacency over dense line ids.

    Rows are arbitrary-size integer bitmasks: bit j of ``rows[i]`` is set iff
    line i relates to line j.  Bitmasks make neighbourhood intersections and
    clique tests single integer operations.
    """

    def __init__(self, delta_kind: str, rows: list[int]):
        self.delta_kind = delta_kind
        self.rows = rows
        self.count = len(rows)

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def mask_of(self, ids) -> int:
        m = 0
        for i in ids:
            m |= 1 << i
        return m

    def common_neighbors(self, ids) -> int:
        m = (1 << self.count) - 1
        for i in ids:
            m &= self.rows[i]
        return m

    def check_invariants(self) -> None:
        for i, r in enumerate(self.rows):
            if r >> i & 1:
                raise AssertionError(f"relation is reflexive at line {i}")
            if r >> self.count:
                raise AssertionError(f"row {i} has bits beyond the line universe")
        for i in range(self.count):
            for j in bits_of(self.rows[i]):
                if not self.rows[j] >> i & 1:
                    raise AssertionError(f"relation not symmetric at ({i}, {j})")


def bits_of(mask: int):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relation_rows(space: SpineSpace, proper_only: bool) -> list[int]:
    n = len(space.lines)
    rows = [0] * n
    closure_sets = [set(ln.closure_gids) for ln in space.lines]
    by_h: dict[tuple, list[int]] = {}
    by_b: dict[tuple, list[int]] = {}
    for ln in space.lines:
        by_h.setdefault(ln.h.rows, []).append(ln.id)
        by_b.setdefault(ln.b.rows, []).append(ln.id)
    proper = space.pid_of_gid
    for group in list(by_h.values()) + list(by_b.values()):
        for a in range(len(group)):
            i = group[a]
            ci = closure_sets[i]
            for bidx in range(a + 1, len(group)):
                j = group[bidx]
                common = ci & closure_sets[j]
                if not common:
                    continue
                assert len(common) == 1, "distinct pencils share at most one member"
                if proper_only and next(iter(common)) not in proper:
                    continue
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def compute_pi(space: SpineSpace) -> LineRelationGraph:
    """Coplanarity: same pencil base or span, closures meeting (anywhere)."""
    return LineRelationGraph(PI, _relation_rows(space, proper_only=False))


def compute_rho(space: SpineSpace) -> LineRelationGraph:
    """Common line pencil: coplanar with the closures meeting at a proper point."""
    return LineRelationGraph(RHO, _relation_rows(space, proper_only=True))


@dataclass(frozen=True)
class StripResult:
    """A geometry-free copy of a relation graph.

    ``graph`` carries only ids and adjacency.  ``perm`` maps original line id
    to stripped id; it exists so verification code can compare the two sides,
    and is not consumed by any reconstruction step.
    """

    graph: LineRelationGraph
    perm: tuple[int, ...]

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """Stripped line id -> original line id."""
        inv = [0] * len(self.perm)
        for orig, stripped in enumerate(self.perm):
            inv[stripped] = orig
        return tuple(inv)

    def original(self, mask: int) -> frozenset[int]:
        """Original ids of the stripped lines set in `mask`."""
        inv = self.inverse
        return frozenset(inv[l] for l in bits_of(mask))


def strip(graph: LineRelationGraph, seed: int) -> StripResult:
    n = graph.count
    rng = random.Random(seed)
    perm = list(range(n))
    # Fisher-Yates with an explicit loop, so the permutation depends only on
    # the seed and n.
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    rows = [0] * n
    for i in range(n):
        r = 0
        for j in bits_of(graph.rows[i]):
            r |= 1 << perm[j]
        rows[perm[i]] = r
    return StripResult(LineRelationGraph(graph.delta_kind, rows), tuple(perm))


# -- serialisation ----------------------------------------------------------


def _row_to_rle(row: int, n: int) -> str:
    """Run-length encoding of a bit row: alternating run lengths, zeros first.

    Walks runs, not bits: a run of zeros at `pos` is the trailing-zero count
    of ``row >> pos`` (or reaches n when nothing is left), and the run of ones
    after it is the trailing-zero count of the complement, read off
    ``rest ^ (rest + 1)``.  The runs, hence the text, are those of the
    bit-by-bit scan; bits at n and above are ignored, as that scan ignores
    them.
    """
    row &= (1 << n) - 1
    runs = []
    pos = 0
    while True:
        rest = row >> pos
        zeros = (rest & -rest).bit_length() - 1 if rest else n - pos
        runs.append(zeros)
        pos += zeros
        if pos == n:
            break
        rest >>= zeros
        ones = (rest ^ (rest + 1)).bit_length() - 1
        runs.append(ones)
        pos += ones
        if pos == n:
            break
    return ",".join(map(str, runs))


def _row_from_rle(text: str, n: int) -> int:
    row = 0
    pos = 0
    bit = 0
    for part in text.split(","):
        length = int(part)
        if bit:
            row |= ((1 << length) - 1) << pos
        pos += length
        bit ^= 1
    if pos != n:
        raise ValueError(f"run lengths sum to {pos}, expected {n}")
    return row


def graph_to_json(graph: LineRelationGraph) -> dict:
    return {
        "delta_kind": graph.delta_kind,
        "count": graph.count,
        "adjacency": [_row_to_rle(r, graph.count) for r in graph.rows],
    }


def graph_from_json(doc: dict) -> LineRelationGraph:
    n = doc["count"]
    rows = [_row_from_rle(text, n) for text in doc["adjacency"]]
    g = LineRelationGraph(doc["delta_kind"], rows)
    g.check_invariants()
    return g
