"""Exact linear algebra over prime fields GF(q).

Subspaces of GF(q)^n are represented by their reduced row-echelon basis,
which is a canonical form: two subspaces are equal iff their canonical
bases are identical tuples.  Everything here is integer arithmetic mod q,
no floating point.  All values are immutable after construction and every
operation is a pure function, so concurrent reads are safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

Vec = tuple[int, ...]
Rows = tuple[Vec, ...]


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ambient space GF(q)^n with q prime and n >= 3."""

    q: int
    n: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"q = {self.q} is not prime")
        if self.n < 3:
            raise ValueError(f"ambient dimension n = {self.n} must be >= 3")


def _rref_rows(rows, q: int, n: int) -> Rows:
    """Reduced row-echelon form of `rows` mod q; zero rows dropped."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], q - 2, q)
        if inv != 1:
            mat[r] = [(x * inv) % q for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                row_r = mat[r]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], row_r)]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


def _rank(rows, q: int, n: int) -> int:
    return len(_rref_rows(rows, q, n))


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(q)^n in canonical (RREF) form.

    `rows` are the basis vectors: pivots strictly increasing, pivot entries
    equal to 1, and all other entries in pivot columns zero.  Construct via
    :func:`rref` (or the enumeration helpers), not directly.
    """

    space: FieldSpec
    rows: Rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, vec) -> bool:
        q, n = self.space.q, self.space.n
        v = [x % q for x in vec]
        for row in self.rows:
            p = _pivot_col(row)
            if v[p]:
                f = v[p]
                v = [(a - f * b) % q for a, b in zip(v, row)]
        return not any(v)

    def __add__(self, other: "Subspace") -> "Subspace":
        return subspace_sum(self, other)

    def __and__(self, other: "Subspace") -> "Subspace":
        return intersect(self, other)

    def __le__(self, other: "Subspace") -> bool:
        return contains(other, self)

    def __repr__(self):
        body = ",".join("".join(str(x) for x in row) for row in self.rows)
        return f"<{body or '0'}>"


def _pivot_col(row) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    raise ValueError("zero row has no pivot")


def rref(space: FieldSpec, rows) -> Subspace:
    """Canonical subspace spanned by `rows`.

    Entries must lie in [0, q); rows must have length n.  Idempotent:
    rref of a canonical basis reproduces it exactly.
    """
    for row in rows:
        if len(row) != space.n:
            raise ValueError(f"row length {len(row)} != ambient dimension {space.n}")
        for x in row:
            if not 0 <= x < space.q:
                raise ValueError(f"entry {x} out of range for GF({space.q})")
    return Subspace(space, _rref_rows(rows, space.q, space.n))


def zero_subspace(space: FieldSpec) -> Subspace:
    return Subspace(space, ())


def full_subspace(space: FieldSpec) -> Subspace:
    eye = tuple(tuple(1 if i == j else 0 for j in range(space.n)) for i in range(space.n))
    return Subspace(space, eye)


def standard_tail_subspace(space: FieldSpec, w: int) -> Subspace:
    """Span of the last w standard basis vectors of GF(q)^n."""
    if not 0 <= w <= space.n:
        raise ValueError(f"w = {w} is not in 0..n = {space.n}")
    n = space.n
    rows = tuple(tuple(1 if j == n - w + i else 0 for j in range(n)) for i in range(w))
    return Subspace(space, rows)


def _check_same_space(a: Subspace, b: Subspace):
    if a.space != b.space:
        raise ValueError(f"ambient mismatch: {a.space} vs {b.space}")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both a and b."""
    _check_same_space(a, b)
    return Subspace(a.space, _rref_rows(a.rows + b.rows, a.space.q, a.space.n))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Largest subspace contained in both a and b (Zassenhaus block trick)."""
    _check_same_space(a, b)
    q, n = a.space.q, a.space.n
    block = [row + row for row in a.rows] + [row + (0,) * n for row in b.rows]
    reduced = _rref_rows(block, q, 2 * n)
    meet = [row[n:] for row in reduced if not any(row[:n])]
    return Subspace(a.space, _rref_rows(meet, q, n))


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    _check_same_space(a, b)
    return all(a.contains_vector(row) for row in b.rows)


def dim_sum(a: Subspace, b: Subspace) -> int:
    _check_same_space(a, b)
    return _rank(a.rows + b.rows, a.space.q, a.space.n)


def dim_intersect(a: Subspace, b: Subspace) -> int:
    return a.dim + b.dim - dim_sum(a, b)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient: the number of k-subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _enumerate_rref(q: int, n: int, k: int):
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


def enumerate_subspaces(space: FieldSpec, k: int) -> list[Subspace]:
    """Every k-subspace of GF(q)^n exactly once, in a deterministic order."""
    if not 0 <= k <= space.n:
        raise ValueError(f"k = {k} out of range for n = {space.n}")
    return [Subspace(space, rows) for rows in _enumerate_rref(space.q, space.n, k)]


def enumerate_between(h: Subspace, b: Subspace, k: int) -> list[Subspace]:
    """All k-subspaces U with h <= U <= b, deterministically ordered.

    Works in the quotient b/h: extends h's basis to a basis of b, then lifts
    every (k - dim h)-subspace of the quotient.
    """
    _check_same_space(h, b)
    if not contains(b, h):
        raise ValueError("h is not contained in b")
    if not h.dim <= k <= b.dim:
        raise ValueError(f"k = {k} outside [{h.dim}, {b.dim}]")
    q, n = h.space.q, h.space.n
    comp = []
    ext = list(h.rows)
    for row in b.rows:
        if _rank(tuple(ext) + (row,), q, n) > len(ext):
            ext.append(row)
            comp.append(row)
    d = len(comp)  # = b.dim - h.dim
    out = []
    for quot_rows in _enumerate_rref(q, d, k - h.dim):
        lifted = []
        for srow in quot_rows:
            vec = [0] * n
            for coeff, crow in zip(srow, comp):
                if coeff:
                    vec = [(a + coeff * c) % q for a, c in zip(vec, crow)]
            lifted.append(tuple(vec))
        out.append(Subspace(h.space, _rref_rows(tuple(h.rows) + tuple(lifted), q, n)))
    return out


def invert_matrix(mat, q: int):
    """Inverse of a square matrix over GF(q) by Gauss-Jordan; raises if singular."""
    n = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, n):
            if aug[i][c] % q:
                pivot = i
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], q - 2, q)
        aug[r] = [(x * inv) % q for x in aug[r]]
        for i in range(n):
            f = aug[i][c]
            if i != r and f:
                aug[i] = [(a - f * b) % q for a, b in zip(aug[i], aug[r])]
        r += 1
    return tuple(tuple(row[n:]) for row in aug)


def apply_matrix(sub: Subspace, mat) -> Subspace:
    """Image of a subspace under the linear map v -> v @ mat (row vectors)."""
    q, n = sub.space.q, sub.space.n
    rows = []
    for row in sub.rows:
        img = [0] * n
        for coeff, mrow in zip(row, mat):
            if coeff:
                img = [(a + coeff * c) % q for a, c in zip(img, mrow)]
        rows.append(tuple(img))
    return Subspace(sub.space, _rref_rows(tuple(rows), q, n))
