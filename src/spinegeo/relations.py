"""Binary line relations: coplanarity and the common-pencil relation.

Two distinct lines are coplanar iff they lie in one semibundle L_U(X): the
lines of one strong subspace U through one point X of U's closure.  They
are in a common line pencil iff in addition X is proper.  Both relations
are read off the space's semibundle table, which each relation builds once.

No pair is lost: coplanar lines share their pencil base H or span B and
their closures meet, so both lie in the star of H or the top of B wherever
that class is listed.  A class void by dimension gives each of its pencil
bases (or spans) one line, and one void by meet gives none.  Two lines fix
their strong subspace and common point, so distinct semibundles share at
most one line.

The abstract side of the package consumes only `LineRelationGraph`: line
ids plus a symmetric irreflexive adjacency, with no geometry attached.
`strip` produces such a graph with ids shuffled by a seeded permutation.
`graph_to_json` writes each row as the lengths of its runs of zeros and
ones, read off the row's run boundaries, and `graph_from_json` reads them
back and checks the invariants.
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

    `ids[l]` is the one int object for line id l, built once per graph and
    shared with the graph's strip (`strip` passes it on, and draws its
    permutation from it).  `members_of(mask)`, the inverse of `mask_of`,
    draws a line set's member tuple from it, so a line held by many kept
    tuples is stored once: every int above 256 is otherwise a separate
    32-byte object per tuple.
    """

    def __init__(self, delta_kind: str, rows: list[int], ids: tuple[int, ...] | None = None):
        self.delta_kind = delta_kind
        self.rows = rows
        self.count = len(rows)
        self.ids = tuple(range(self.count)) if ids is None else ids

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def mask_of(self, ids) -> int:
        m = 0
        for i in ids:
            m |= 1 << i
        return m

    def members_of(self, mask: int) -> tuple[int, ...]:
        """The sorted line ids of a mask, as the shared `ids` objects."""
        ids = self.ids
        return tuple([ids[v] for v in bits_of(mask)])

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
        # symmetric iff every row's bit list equals its column's: transpose the
        # lists once, then report the first (i, j) in row order without (j, i)
        bits = [bits_of(r) for r in self.rows]
        cols: list[list[int]] = [[] for _ in bits]
        for i, row_bits in enumerate(bits):
            for j in row_bits:
                cols[j].append(i)
        for i, row_bits in enumerate(bits):
            if row_bits != cols[i]:
                col = set(cols[i])
                for j in row_bits:
                    if j not in col:
                        raise AssertionError(f"relation not symmetric at ({i}, {j})")


def bits_of(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative mask, ascending.

    Walks down from the top bit, so each step shortens the int; taking the
    low bit as ``mask & -mask`` would make CPython convert the negative
    operand to two's complement over the mask's full width on every bit.
    """
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out


def permute_rows(rows: list[int], perm) -> list[int]:
    """The adjacency `rows` with every line id l renamed to ``perm[l]``."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        r = 0
        for j in bits_of(row):
            r |= 1 << perm[j]
        out[perm[i]] = r
    return out


def _relation_rows(space: SpineSpace, proper_only: bool) -> list[int]:
    rows = [0] * len(space.lines)
    for (_, g), lids in space.semibundles(min_p_dim=2).items():
        if proper_only and g not in space.pid_of_gid:
            continue
        mask = 0
        for lid in lids:
            mask |= 1 << lid
        for lid in lids:
            others = mask ^ 1 << lid
            assert not rows[lid] & others, "distinct semibundles share at most one line"
            rows[lid] |= others
    return rows


def compute_pi(space: SpineSpace) -> LineRelationGraph:
    """Coplanarity: both lines in one semibundle, at any vertex."""
    return LineRelationGraph(PI, _relation_rows(space, proper_only=False))


def compute_rho(space: SpineSpace) -> LineRelationGraph:
    """Common line pencil: both lines in one semibundle at a proper vertex."""
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
        for orig, stripped in zip(self.graph.ids, self.perm):
            inv[stripped] = orig
        return tuple(inv)


def strip(graph: LineRelationGraph, seed: int) -> StripResult:
    """`graph` with its line ids shuffled by a permutation seeded by `seed`.

    The stripped graph shares `graph.ids`, and `perm` and `inverse` hold
    those same objects, so a strip adds no int object per line id.
    """
    n = graph.count
    rng = random.Random(seed)
    perm = list(graph.ids)
    # Fisher-Yates with an explicit loop, so the permutation depends only on
    # the seed and n.
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    rows = permute_rows(graph.rows, perm)
    return StripResult(LineRelationGraph(graph.delta_kind, rows, graph.ids), tuple(perm))


# -- serialisation ----------------------------------------------------------


def _row_to_rle(row: int, n: int) -> str:
    """Run-length encoding of a bit row: alternating run lengths, zeros first.

    The set bits of ``row ^ row << 1`` are the run boundaries, where a bit
    differs from the one below it (a zero below bit 0).  The lengths are the
    gaps between 0, those boundaries and n, so a row starting with a one
    opens with a zero run of 0 and an empty row is the single run n.  Bits
    at n and above are ignored.
    """
    row &= (1 << n) - 1
    edges = [0, *bits_of(row ^ row << 1)]
    if edges[-1] < n or not row:
        edges.append(n)
    return ",".join([str(b - a) for a, b in zip(edges, edges[1:])])


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
