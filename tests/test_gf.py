import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinegeo.gf import (
    FieldSpec,
    Interval,
    Subspace,
    _lanes,
    _rank,
    _rref_rows,
    apply_matrix,
    contains,
    enumerate_between,
    enumerate_subspaces,
    full_subspace,
    intersect,
    q_binomial,
    rref,
    standard_tail_subspace,
    subspace_key,
    subspace_sum,
    subspaces_meeting,
    zero_subspace,
)

from oracles import dim_intersect, dim_sum, enumerate_rref

GF2_3 = FieldSpec(2, 3)
GF2_4 = FieldSpec(2, 4)
GF3_3 = FieldSpec(3, 3)


# ---------- field spec ---------------------------------------------------

def test_fieldspec_rejects_nonprime_and_small_n():
    with pytest.raises(ValueError):
        FieldSpec(4, 5)
    with pytest.raises(ValueError):
        FieldSpec(2, 2)


# ---------- canonical form ------------------------------------------------

def test_rref_full_rank_2x2():
    s = rref(GF2_3, [(1, 1, 0), (0, 1, 0)])
    assert s.rows == ((1, 0, 0), (0, 1, 0))


def test_rref_zero_space():
    assert rref(GF2_3, [(0, 0, 0)]).dim == 0
    assert rref(GF2_3, [(0, 0, 0)]).rows == ()


def test_rref_gf3_dependent_rows():
    # hand elimination over GF(3): (2,1) ~ (1,2), and (1,2) - (1,2) = 0
    s = rref(GF3_3, [(2, 1, 0), (1, 2, 0)])
    assert s.dim == 1
    assert s.rows == ((1, 2, 0),)


def test_rref_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        rref(GF2_3, [(0, 2, 0)])
    with pytest.raises(ValueError):
        rref(GF2_3, [(0, 1)])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=0, max_size=5),
)
def test_rref_idempotent(q, raw):
    spec = FieldSpec(q, 4)
    rows = [tuple(x % q for x in row) for row in raw]
    s = rref(spec, rows)
    assert rref(spec, s.rows) == s
    # every row of the input lies in the span: adding it keeps the basis
    for row in rows:
        assert reference_rref_rows(s.rows + (row,), q, 4) == s.rows


# ---------- lattice operations ---------------------------------------------

def e(spec, i):
    return rref(spec, [tuple(1 if j == i else 0 for j in range(spec.n))])


def test_sum_of_axes():
    s = subspace_sum(e(GF2_3, 0), e(GF2_3, 1))
    assert s.rows == ((1, 0, 0), (0, 1, 0))


def test_sum_idempotent():
    x = rref(GF2_3, [(1, 1, 0), (0, 0, 1)])
    assert subspace_sum(x, x) == x


def test_intersect_planes_of_small_space():
    a = rref(GF2_3, [(1, 0, 0), (0, 1, 0)])
    b = rref(GF2_3, [(0, 1, 0), (0, 0, 1)])
    assert intersect(a, b) == e(GF2_3, 1)
    assert intersect(a, a) == a


def test_any_two_distinct_planes_of_dim3_meet_in_a_line():
    planes = enumerate_subspaces(GF2_3, 2)
    assert len(planes) == 7
    for a, b in itertools.combinations(planes, 2):
        assert intersect(a, b).dim == 1


def test_modular_dimension_law_exhaustive_gf2_4():
    subs = enumerate_subspaces(GF2_4, 2)
    assert len(subs) == 35  # (15 * 14) / (3 * 2)
    for a, b in itertools.product(subs, repeat=2):
        meet = intersect(a, b)
        join = subspace_sum(a, b)
        assert meet.dim + join.dim == a.dim + b.dim
        assert dim_sum(a, b) == join.dim
        assert dim_intersect(a, b) == meet.dim
        assert contains(join, a) and contains(join, b)
        assert contains(a, meet) and contains(b, meet)


def test_contains_basics_and_oracle():
    full = full_subspace(GF2_3)
    everything = [s for k in range(4) for s in enumerate_subspaces(GF2_3, k)]
    for s in everything:
        assert contains(full, s)
    assert not contains(e(GF2_3, 0), e(GF2_3, 1))
    # contains(a, b) agrees with intersect(a, b) == b on all pairs
    for a, b in itertools.product(everything, repeat=2):
        assert contains(a, b) == (intersect(a, b) == b)


def test_mismatched_ambient_spaces_error():
    with pytest.raises(ValueError):
        subspace_sum(e(GF2_3, 0), e(GF2_4, 0))


# ---------- enumeration -----------------------------------------------------

def test_enumerate_counts_match_gaussian_binomial():
    for q in (2, 3):
        for n in (3, 4):
            spec = FieldSpec(q, n)
            for k in range(n + 1):
                assert len(enumerate_subspaces(spec, k)) == q_binomial(n, k, q)


def test_enumerate_zero_dim():
    assert enumerate_subspaces(GF2_3, 0) == [zero_subspace(GF2_3)]


def test_enumerate_is_deterministic_and_duplicate_free():
    a = enumerate_subspaces(GF2_4, 2)
    b = enumerate_subspaces(GF2_4, 2)
    assert a == b
    assert len({s.rows for s in a}) == len(a)


@pytest.mark.parametrize("q, n", [(2, 5), (3, 4), (5, 3), (131, 3)])
def test_enumerate_matches_the_rref_reference_in_order(q, n):
    # the order fixes every point, line and plane id; q = 131 packs two-byte lanes
    spec = FieldSpec(q, n)
    for k in range(n + 1):
        expected = [Subspace(spec, rows) for rows in enumerate_rref(q, n, k)]
        assert enumerate_subspaces(spec, k) == expected


def test_enumerate_out_of_range():
    with pytest.raises(ValueError):
        enumerate_subspaces(GF2_3, 4)


def test_enumerate_between_pencil_sizes():
    h = e(GF2_4, 0)
    b = rref(GF2_4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    mid = enumerate_between(h, b, 2)
    assert len(mid) == 3  # q + 1 over GF(2)
    assert enumerate_between(h, h, 1) == [h]


def test_enumerate_between_gf3_matches_filter():
    spec = FieldSpec(3, 4)
    h = e(spec, 0)
    b = rref(spec, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    mid = enumerate_between(h, b, 2)
    assert len(mid) == 4  # q + 1 over GF(3)
    oracle = [
        s for s in enumerate_subspaces(spec, 2)
        if contains(s, h) and contains(b, s)
    ]
    assert sorted(s.rows for s in mid) == sorted(s.rows for s in oracle)


def test_enumerate_between_rejects_bad_bounds():
    with pytest.raises(ValueError):
        enumerate_between(e(GF2_3, 0), e(GF2_3, 1), 1)  # h not inside b


def test_standard_tail_subspace():
    w = standard_tail_subspace(GF2_4, 2)
    assert w.rows == ((0, 0, 1, 0), (0, 0, 0, 1))


# ---------- matrices ---------------------------------------------------------

def test_invert_and_apply_matrix_roundtrip():
    mat = ((1, 1, 0), (0, 1, 2), (0, 0, 1))
    inv = ((1, 2, 2), (0, 1, 1), (0, 0, 1))  # mat^-1 over GF(3)
    sub = rref(GF3_3, [(1, 2, 0), (0, 0, 1)])
    assert apply_matrix(sub, mat) != sub
    assert apply_matrix(apply_matrix(sub, mat), inv) == sub


# ---------- packed kernel against the tuple elimination it replaced -----------

def reference_rref_rows(rows, q, n):
    """The tuple-of-lists elimination the packed kernel replaced."""
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


def reference_enumerate_between(h, b, k):
    """`enumerate_between` as it was before the packed kernel: the greedy
    complement from b's rows, every quotient RREF matrix lifted, then reduced."""
    q, n = h.space.q, h.space.n
    comp = []
    ext = list(h.rows)
    for row in b.rows:
        if len(reference_rref_rows(tuple(ext) + (row,), q, n)) > len(ext):
            ext.append(row)
            comp.append(row)
    out = []
    for quot_rows in enumerate_rref(q, len(comp), k - h.dim):
        lifted = []
        for srow in quot_rows:
            vec = [0] * n
            for coeff, crow in zip(srow, comp):
                if coeff:
                    vec = [(a + coeff * c) % q for a, c in zip(vec, crow)]
            lifted.append(tuple(vec))
        out.append(Subspace(h.space, reference_rref_rows(tuple(h.rows) + tuple(lifted), q, n)))
    return out


@st.composite
def matrices(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         max_size=n + 2))
    return q, n, [tuple(row) for row in rows]


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_packed_elimination_matches_reference(case):
    q, n, rows = case
    expected = reference_rref_rows(rows, q, n)
    assert _rref_rows(rows, q, n) == expected
    assert _rank(rows, q, n) == len(expected)


def test_packed_intersection_matches_reference():
    spec = FieldSpec(3, 4)
    subs = [s for k in range(5) for s in enumerate_subspaces(spec, k)]
    rng = random.Random(5)
    for a, b in (rng.sample(subs, 2) for _ in range(400)):
        # Zassenhaus with the reference elimination
        block = [row + row for row in a.rows] + [row + (0,) * 4 for row in b.rows]
        reduced = reference_rref_rows(block, 3, 8)
        meet = [row[4:] for row in reduced if not any(row[:4])]
        assert intersect(a, b).rows == reference_rref_rows(meet, 3, 4)


def _between_triples(spec):
    subs = [s for k in range(spec.n + 1) for s in enumerate_subspaces(spec, k)]
    return [(h, b, k) for h in subs for b in subs if contains(b, h)
            for k in range(h.dim, b.dim + 1)]


def test_enumerate_between_matches_reference_on_all_of_gf2_5():
    triples = _between_triples(FieldSpec(2, 5))
    assert len(triples) == 15_384  # sum of [5,d]_2 [d,e]_2 (d-e+1) over e <= d
    for h, b, k in triples:
        assert enumerate_between(h, b, k) == reference_enumerate_between(h, b, k)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3)])
def test_enumerate_between_matches_reference_on_sampled_triples(q, n):
    triples = _between_triples(FieldSpec(q, n))
    for h, b, k in random.Random(q * 10 + n).sample(triples, 600):
        assert enumerate_between(h, b, k) == reference_enumerate_between(h, b, k)


def test_two_byte_lanes_match_reference():
    # q >= 64 needs 16-bit lanes, packed with shifts and decoded lane by lane:
    # the path no pinned configuration takes.  The points of GF(q)^3 are
    # enumerated through the same lanes
    rng = random.Random(67)
    for q in (67, 131, 257):
        assert _lanes(q, 3).width == 16
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, n + 2))]
            assert _rref_rows(rows, q, n) == reference_rref_rows(rows, q, n)
        points = enumerate_subspaces(FieldSpec(q, 3), 1)
        assert len(points) == len(set(points)) == q_binomial(3, 1, q)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (5, 3)])
def test_interval_meet_dim_is_exact_on_the_lift(q, n):
    # the meet dimensions listed in lock-step with the lifts, from the
    # complement reduced once modulo h + w
    spec = FieldSpec(q, n)
    subs = [s for k in range(n + 1) for s in enumerate_subspaces(spec, k)]
    rng = random.Random(q)
    full = full_subspace(spec)
    for h in rng.sample(subs, 40):
        for k in range(h.dim, n + 1):
            interval = Interval(h, full, k)
            for w in rng.sample(subs, 3):
                listed = list(interval.lifts_with_meet_dims(w))
                assert [lift for lift, _ in listed] == list(interval.lifts())
                for lift, meet in listed:
                    u = interval.subspace(lift)
                    assert meet == dim_intersect(u, w)
                    assert interval.key(lift) == subspace_key(u)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (5, 3)])
def test_meet_dims_match_dim_intersect(q, n):
    # the build's generator lists: every k-subspace in the order of
    # enumerate_subspaces, each with its meet with w
    spec = FieldSpec(q, n)
    subs = [s for k in range(n + 1) for s in enumerate_subspaces(spec, k)]
    for w in random.Random(q).sample(subs, 12):
        for k in range(n + 1):
            listed = subspaces_meeting(spec, k, w)
            assert [u for u, _ in listed] == enumerate_subspaces(spec, k)
            assert [meet for _, meet in listed] == [dim_intersect(u, w) for u, _ in listed]


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (5, 3)])
def test_interval_unit_is_one_vector_per_subspace_above_h(q, n):
    # every interval above one h, of every top, names each U >= h (dim h + 1)
    # by the same `unit` vector, and distinct U by distinct vectors
    spec = FieldSpec(q, n)
    full = full_subspace(spec)
    for d in range(n):
        for h in enumerate_subspaces(spec, d):
            unit_of: dict = {}
            for b in [full] + [s for e in range(d + 1, n) for s in enumerate_subspaces(spec, e)
                               if contains(s, h)]:
                interval = Interval(h, b, d + 1)
                for lift in interval.lifts():
                    assert unit_of.setdefault(interval.key(lift), interval.unit(*lift)) == (
                        interval.unit(*lift))
            assert len(set(unit_of.values())) == len(unit_of) == q_binomial(n - d, 1, q)

