"""Exact linear algebra over prime fields GF(q).

Subspaces of GF(q)^n are represented by their reduced row-echelon basis,
which is a canonical form: two subspaces are equal iff their canonical
bases are identical tuples.  Everything here is integer arithmetic mod q,
no floating point.  All values are immutable after construction and every
operation is a pure function (the memo of decoded rows below only ever gains
entries, each equal to what a recomputation gives), so concurrent reads are
safe.

Eliminations run on packed vectors (`_Lanes`): a vector of GF(q)^n is one
Python int holding a lane of w bits per coordinate, coordinate 0 in the
most significant lane, so the leading coordinate of a vector is read off
its bit length.  w is the smallest multiple of 8 with 2^(w-1) >= 2q - 1
(8 for every q < 64, so a row packs and unpacks as bytes): the lane-wise
sum of two reduced vectors then never carries into the next lane, and one
masked conditional subtract of q reduces it again.  A row's multiples
[0, v, 2v, ..., (q-1)v] are built by that sum, and scaling v to lead entry 1
permutes them, so the same SWAR path serves every prime q.
Results are unpacked back into the canonical tuples; outside this module
only `subspace_key`, the packed canonical basis, is seen, as a cheap
dictionary key.

`enumerate_between` lists the subspaces between h and b through a
complement of h in b whose vectors are the rows of b, chosen greedily in
row order.  Any complement spans the same subspaces, but the order of the
list follows from this basis, and that order fixes the point, line and
plane ids of a spine space (and with them every report and relation
file), so the basis must not change.
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


class _Lanes:
    """Packed vectors of GF(q)^n: one lane of `width` bits per coordinate.

    The operations are closures over the field's constants rather than
    methods: they run in the innermost loops of the space build, where
    attribute lookups would cost as much as the arithmetic.  A `basis` is a
    dict from pivot column to the multiples of a row whose pivot entry is 1
    and whose entries in the other pivot columns are 0.
    """

    def __init__(self, q: int, n: int):
        nbytes = 1
        while 2 ** (8 * nbytes - 1) < 2 * q - 1:
            nbytes += 1
        width = 8 * nbytes
        top = width - 1
        ones = sum(1 << (width * i) for i in range(n))
        high = ones << top  # the top bit of every lane
        bias = ((1 << top) - q) * ones  # sets that bit in every lane >= q
        mask = (1 << width) - 1
        shift = tuple(width * (n - 1 - c) for c in range(n))
        inv = (0,) + tuple(pow(x, q - 2, q) for x in range(1, q))
        self.q, self.width = q, width

        if nbytes == 1:
            def pack(row) -> int:
                return int.from_bytes(bytes(row), "big")

            def decode(v: int) -> Vec:
                return tuple(v.to_bytes(n, "big"))
        else:
            def pack(row) -> int:
                return sum(x << s for x, s in zip(row, shift))

            def decode(v: int) -> Vec:
                return tuple((v >> s) & mask for s in shift)

        # every vector decoded once: at most q^n entries, and the subspaces
        # share their row tuples
        decoded: dict[int, Vec] = {}

        def unpack(v: int) -> Vec:
            row = decoded.get(v)
            if row is None:
                row = decoded[v] = decode(v)
            return row

        def add(a: int, b: int) -> int:
            """Lane-wise a + b mod q: no lane carries, and one masked
            subtract of q reduces every lane that reached q."""
            s = a + b
            return s - (((s + bias) & high) >> top) * q

        def multiples(v: int) -> list[int]:
            """[0, v, 2v, ..., (q-1)v]; v - f*r is add(v, multiples(r)[q - f])."""
            out = [0, v]
            for _ in range(q - 2):
                out.append(add(out[-1], v))
            return out

        def lead(v: int) -> int:
            """Column of the first nonzero coordinate of a nonzero v."""
            return n - 1 - (v.bit_length() - 1) // width

        def reduce(v: int, basis: dict) -> int:
            """v minus its components along the rows of `basis`."""
            for c, mults in basis.items():
                f = (v >> shift[c]) & mask
                if f:
                    s = v + mults[q - f]
                    v = s - (((s + bias) & high) >> top) * q
            return v

        def residue(echelon: dict, v: int) -> int:
            """v reduced by an echelon basis (lead column -> multiples of a row
            with lead entry 1) until its lead column has no row: 0 iff v lies
            in the span."""
            while v:
                c = n - 1 - (v.bit_length() - 1) // width
                mults = echelon.get(c)
                if mults is None:
                    return v
                s = v + mults[q - ((v >> shift[c]) & mask)]
                v = s - (((s + bias) & high) >> top) * q
            return 0

        def extend(echelon: dict, v: int) -> bool:
            """Add v to an echelon basis unless v lies in its span; True if added.
            The row kept is v / f for v's lead entry f, whose multiples are
            v's permuted: i * (v / f) = (i / f) * v."""
            v = residue(echelon, v)
            if not v:
                return False
            f = v >> (v.bit_length() - 1) // width * width
            mults = multiples(v)
            if f != 1:
                mults = [mults[i * inv[f] % q] for i in range(q)]
            echelon[n - 1 - (v.bit_length() - 1) // width] = mults
            return True

        def reduced_basis(vecs) -> dict:
            """A basis of the span of `vecs`, each row with pivot entry 1 and
            zeros in the other pivot columns."""
            echelon: dict = {}
            for v in vecs:
                extend(echelon, v)
            if len(echelon) < 2:  # one row, its lead entry 1: already reduced
                return echelon
            basis: dict = {}
            for c in sorted(echelon, reverse=True):  # clear the later pivot columns
                basis[c] = multiples(reduce(echelon[c][1], basis))
            return basis

        def rref(vecs) -> list[int]:
            """Reduced row-echelon basis of the span, rows by increasing pivot:
            the earlier a reduced row's pivot, the larger its packed int."""
            return sorted((mults[1] for mults in reduced_basis(vecs).values()), reverse=True)

        self.pack, self.unpack, self.add, self.multiples = pack, unpack, add, multiples
        self.lead, self.reduce, self.residue, self.extend = lead, reduce, residue, extend
        self.reduced_basis, self.rref = reduced_basis, rref


@lru_cache(maxsize=None)
def _lanes(q: int, n: int) -> _Lanes:
    return _Lanes(q, n)


def _rref_rows(rows, q: int, n: int) -> Rows:
    """Reduced row-echelon form of `rows` mod q; zero rows dropped."""
    lanes = _lanes(q, n)
    return tuple(map(lanes.unpack, lanes.rref(map(lanes.pack, rows))))


def _rank(rows, q: int, n: int) -> int:
    lanes = _lanes(q, n)
    echelon: dict[int, list[int]] = {}
    return sum(lanes.extend(echelon, lanes.pack(row)) for row in rows)


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

    def __repr__(self):
        body = ",".join("".join(str(x) for x in row) for row in self.rows)
        return f"<{body or '0'}>"


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
    lanes, wide = _lanes(q, n), _lanes(q, 2 * n)
    half = n * lanes.width
    block = [(v << half) | v for v in map(lanes.pack, a.rows)]
    block += [v << half for v in map(lanes.pack, b.rows)]
    # in an echelon basis of the block, the rows that lead in the second half
    # have a vanishing first half, and their second halves span the meet
    echelon: dict[int, list[int]] = {}
    for v in block:
        wide.extend(echelon, v)
    meet = [mults[1] for c, mults in echelon.items() if c >= n]
    return Subspace(a.space, tuple(map(lanes.unpack, lanes.rref(meet))))


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    _check_same_space(a, b)
    return _rank(a.rows + b.rows, a.space.q, a.space.n) == a.dim


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


def subspace_key(sub: Subspace) -> tuple[int, ...]:
    """The packed canonical basis: equal keys iff equal subspaces of one space."""
    return tuple(map(_lanes(sub.space.q, sub.space.n).pack, sub.rows))


def _quotient_lifts(lanes: _Lanes, comp: list[int], r: int):
    """Every r-subspace of the span of `comp`, one basis of r vectors each;
    the bases run through the RREF matrices over `comp` with pivot columns in
    lexicographic order, then free entries in lexicographic order."""
    add, d = lanes.add, len(comp)
    mults = [lanes.multiples(v) for v in comp]
    for pivots in itertools.combinations(range(d), r):
        # row i of the matrix: 1 at pivots[i], free entries to its right; its
        # free values vary in lexicographic order, the later rows faster, so
        # the matrices are the product of the row lists
        choices = []
        for p in pivots:
            row_lifts = [comp[p]]
            for j in range(p + 1, d):
                if j not in pivots:
                    row_lifts = [add(v, m) for v in row_lifts for m in mults[j]]
            choices.append(row_lifts)
        yield from itertools.product(*choices)


class Interval:
    """The k-subspaces U with h <= U <= b, as lifts of the quotient b/h.

    `lifts()` yields, in the order of `enumerate_between`, one packed basis
    of U modulo h per U (a tuple of k - dim h vectors); `subspace(lift)`
    canonicalises one.  Callers that discard most of the U can take each
    lift's meet with a fixed w from `lifts_with_meet_dims`, and canonicalise
    only the ones they keep.
    """

    def __init__(self, h: Subspace, b: Subspace, k: int):
        _check_same_space(h, b)
        self.space, self.h, self.k = h.space, h, k
        q, n = h.space.q, h.space.n
        self.lanes = lanes = _lanes(q, n)
        self.h_rows = [lanes.pack(row) for row in h.rows]
        self.h_basis = {lanes.lead(v): lanes.multiples(v) for v in self.h_rows}
        # the rows of b, in row order, that raise the rank of h, each reduced
        # modulo h: a lift spans U together with h just the same
        ext = dict(self.h_basis)
        comp = [lanes.reduce(v, self.h_basis) for v in map(lanes.pack, b.rows)
                if lanes.extend(ext, v)]
        if h.dim + len(comp) != b.dim:
            raise ValueError("h is not contained in b")
        if not h.dim <= k <= b.dim:
            raise ValueError(f"k = {k} outside [{h.dim}, {b.dim}]")
        self.comp = comp

    def lifts(self):
        """Every (k - dim h)-subspace of the quotient, lifted."""
        return _quotient_lifts(self.lanes, self.comp, self.k - self.h.dim)

    def lifts_with_meet_dims(self, w: Subspace):
        """(lift, dim(U meet w)) for every lift, in the order of `lifts()`.

        Modulo h + w the complement is reduced once, and a lift reduces to
        the same combination of the reduced rows; so dim(U + w) is dim(h + w)
        plus the rank of that combination, listed in lock-step with the lift.
        """
        lanes = self.lanes
        hw = lanes.reduced_basis(self.h_rows + [lanes.pack(row) for row in w.rows])
        images = [lanes.reduce(v, hw) for v in self.comp]
        base, extend, residue = self.k + w.dim - len(hw), lanes.extend, lanes.residue
        # the product varies the last row fastest: the echelon of the others
        # is kept while they stay, and the last row is only reduced by it
        head, echelon = None, {}
        for lift, image in zip(self.lifts(),
                               _quotient_lifts(lanes, images, self.k - self.h.dim)):
            *rest, last = image or (0,)
            if rest != head:
                head, echelon = rest, {}
                for v in rest:
                    extend(echelon, v)
            yield lift, base - len(echelon) - (residue(echelon, last) != 0)

    def key(self, lift) -> tuple[int, ...]:
        """`subspace_key` of the U spanned by h and a lift."""
        lanes = self.lanes
        # the lift is independent modulo h and zero in h's pivot columns
        new = lanes.reduced_basis(lift)
        rows = [lanes.reduce(v, new) for v in self.h_rows]
        rows += [mults[1] for mults in new.values()]
        rows.sort(reverse=True)
        return tuple(rows)

    def unit(self, v: int) -> int:
        """A nonzero vector reduced modulo h (zero in h's pivot columns),
        scaled to lead entry 1: one vector per (dim h + 1)-subspace above h,
        the same in every interval above h."""
        q, width = self.lanes.q, self.lanes.width
        f = v >> (v.bit_length() - 1) // width * width
        return v if f == 1 else self.lanes.multiples(v)[pow(f, q - 2, q)]

    def subspace(self, lift) -> Subspace:
        """The canonical U spanned by h and a lift."""
        return Subspace(self.space, tuple(map(self.lanes.unpack, self.key(lift))))


def enumerate_subspaces(space: FieldSpec, k: int) -> list[Subspace]:
    """Every k-subspace of GF(q)^n exactly once, in a deterministic order;
    raises ValueError unless 0 <= k <= n."""
    return [u for u, _ in subspaces_meeting(space, k, zero_subspace(space))]


def subspaces_meeting(space: FieldSpec, k: int, w: Subspace) -> list[tuple[Subspace, int]]:
    """(U, dim(U meet w)) for every k-subspace U, in the order of
    `enumerate_subspaces`: the lifts of the zero interval with their meets."""
    interval = Interval(zero_subspace(space), full_subspace(space), k)
    # over the standard basis with h = 0 each lift is already the RREF basis,
    # rows in pivot order
    return [(Subspace(space, tuple(map(interval.lanes.unpack, lift))), d)
            for lift, d in interval.lifts_with_meet_dims(w)]


def enumerate_between(h: Subspace, b: Subspace, k: int) -> list[Subspace]:
    """All k-subspaces U with h <= U <= b, deterministically ordered.

    Works in the quotient b/h: extends h's basis to a basis of b, then lifts
    every (k - dim h)-subspace of the quotient.
    """
    interval = Interval(h, b, k)
    return [interval.subspace(lift) for lift in interval.lifts()]


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
