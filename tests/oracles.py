"""Reference implementations that the tests compare the package against.

None of these is on a command's path.  Each does one job of the package
in its most literal form, so a test can hold the fast code to it:

- `enumerate_rref` lists the k x n RREF matrices directly; it fixes the
  order of `gf.enumerate_subspaces` and of `gf.Interval.lifts`, and with it
  every point, line and plane id.
- `dim_sum` and `dim_intersect` are the dimensions of the join and the meet
  of two subspaces, from the rank of their stacked bases alone.
- `span_clique` is the span of one positive triple.
- `literal_p_rho` searches the witness clique of `pencils.p_rho` among the
  lines related to all three, with no family.
- `verify_pencils` closes every pair of every recovered pencil with the
  ternary predicate; `pencil_coplanar` is all-pairs relatedness.
- `homology_matrix` builds the twist of `excluded.build_homology_map` as a
  change of basis B^-1 D B, with a Gauss-Jordan `invert_matrix`.
- `plane_hosts` finds the star or top holding each plane by its generator
  among `space.strongs`, not through the space's line-to-host lists.
"""

from __future__ import annotations

import itertools

from spinegeo.cliques import LineSetFamily, _mask_is_clique, delta_n, podmianka
from spinegeo.gf import Subspace, _check_same_space, _rank
from spinegeo.pencils import p_pi, p_rho
from spinegeo.relations import PI, LineRelationGraph, bits_of


def enumerate_rref(q: int, n: int, k: int):
    """All k x n matrices in reduced row-echelon form over GF(q), full rank.

    Generated in a fixed order: pivot columns in lexicographic order, free
    entries in lexicographic order.  Each matrix appears exactly once, so
    this enumerates Sub_k(GF(q)^n) without deduplication.
    """
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        pivset = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivset
        ]
        base = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        if not free:
            yield tuple(tuple(row) for row in base)
            continue
        for values in itertools.product(range(q), repeat=len(free)):
            mat = [row[:] for row in base]
            for (i, j), v in zip(free, values):
                mat[i][j] = v
            yield tuple(tuple(row) for row in mat)


def dim_sum(a: Subspace, b: Subspace) -> int:
    """dim(a + b): the rank of the two bases stacked."""
    _check_same_space(a, b)
    return _rank(a.rows + b.rows, a.space.q, a.space.n)


def dim_intersect(a: Subspace, b: Subspace) -> int:
    """dim(a & b), by the dimension formula."""
    return a.dim + b.dim - dim_sum(a, b)


def span_clique(l1: int, l2: int, l3: int, graph: LineRelationGraph) -> frozenset[int]:
    """The maximal clique spanned by a positive triple.

    The span is the triple's common neighbourhood together with the triple
    itself.  Raises if the triple does not satisfy the spanning predicate.
    """
    if not delta_n((l1, l2, l3), graph):
        raise ValueError(f"triple ({l1}, {l2}, {l3}) does not span a clique")
    mask = graph.common_neighbors((l1, l2, l3))
    return frozenset(bits_of(mask)) | {l1, l2, l3}


def literal_p_rho(l1: int, l2: int, l3: int, graph: LineRelationGraph) -> bool:
    """`p_rho` without a clique family: the triple is pairwise related and
    does not span, and a literal search finds a spanning triple among the
    lines related to (or equal to) each of the three whose span holds the
    triple and has no exchange (any containing clique lives there)."""
    if len({l1, l2, l3}) != 3:
        return False
    rows = graph.rows
    if not (rows[l1] >> l2 & 1 and rows[l1] >> l3 & 1 and rows[l2] >> l3 & 1):
        return False
    common = rows[l1] & rows[l2] & rows[l3]
    if _mask_is_clique(common, rows):  # the triple itself spans
        return False
    triple_mask = (1 << l1) | (1 << l2) | (1 << l3)
    cand_mask = ((rows[l1] | 1 << l1) & (rows[l2] | 1 << l2) & (rows[l3] | 1 << l3))
    cands = bits_of(cand_mask | triple_mask)
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
        if not podmianka(graph.members_of(span), graph):
            return True
    return False


def _pencil_closure(i: int, j: int, graph, test) -> tuple[int, ...]:
    """The pair with every third line `test` finds concurrent with it, sorted."""
    third = [k for k in bits_of(graph.rows[i] & graph.rows[j]) if test(k, i, j)]
    return tuple(sorted([i, j, *third]))


def verify_pencils(pencils: LineSetFamily, graph: LineRelationGraph,
                   family: LineSetFamily) -> list[str]:
    """Check every recovered pencil is concurrency-closed and maximal.

    `family` is the graph's clique family, which `p_rho` reads.
    """
    if graph.delta_kind == PI:
        test = lambda k, i, j: p_pi(k, i, j, graph)
    else:
        test = lambda k, i, j: p_rho(k, i, j, graph, family)
    problems = []
    for mem in pencils.members:
        for i, j in itertools.combinations(mem, 2):
            if _pencil_closure(i, j, graph, test) != mem:
                problems.append(f"pair ({i},{j}) closes to a different set than {mem}")
                break
    return problems


def pencil_coplanar(p1, p2, graph: LineRelationGraph) -> bool:
    """All-pairs relatedness across two pencils given by their line ids
    (vacuously including shared lines)."""
    rows = graph.rows
    return all(a == b or rows[a] >> b & 1 for a in p1 for b in p2)


def invert_matrix(mat, q: int):
    """Inverse of a square matrix over GF(q) by Gauss-Jordan; raises if singular."""
    n = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] % q), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], q - 2, q)
        aug[c] = [(x * inv) % q for x in aug[c]]
        for i in range(n):
            f = aug[i][c]
            if i != c and f:
                aug[i] = [(a - f * b) % q for a, b in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_mul(a, b, q: int):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)) for row in a)


def homology_matrix(space, star, scale: int):
    """The matrix of `excluded.build_homology_map`'s collineation, built as a
    change of basis: B holds the rows of the star's base H, then the first
    row of W off H, then the unit vectors that raise the rank, in order;
    D scales the W row by `scale`; the matrix is B^-1 D B."""
    q, n = space.params.space.q, space.params.space.n
    h = star.generator
    basis = list(h.rows)
    for row in space.params.w.rows:
        if _rank(basis + [row], q, n) == len(basis) + 1:
            basis.append(row)
            break
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        if len(basis) < n and _rank(basis + [unit], q, n) == len(basis) + 1:
            basis.append(unit)
    d = [[scale if i == j == h.dim else int(i == j) for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(invert_matrix(basis, q), d, q), basis, q)


def plane_hosts(space) -> list:
    """By plane id, the strong subspace holding the plane, or None: the star
    whose generator is a star plane's H, the top whose generator is a top
    plane's B."""
    by_generator = {st.generator.rows: st for st in space.strongs}
    return [by_generator.get((p.low if p.side == "star" else p.high).rows)
            for p in space.planes()]
