"""The line-set kernels against the bodies they replaced.

`bits_of` and `_mask_is_clique` walk a mask from the top bit down, and
`clique_dimension` runs on masks local to the clique.  The references below
are the earlier bodies: upward walks with ``m & -m`` over masks as wide as
the line universe.  Each pair is compared on random ints (including 0,
bit 0 and the top bit of a 5 760-line universe) and on cfg1's real rows,
cliques and pencils.

Clique families keep member tuples, not masks.  `family_K`, `family_P` and
the indexed `p_rho` are compared with the earlier bodies, which stored one
universe-wide mask per clique, on random graphs and on the relations of
cfg1, cex and the GF(3) twin (3,4,2,1,3).  Their kept member tuples hold
the graph's shared `ids` objects.

Bron-Kerbosch, the oracle of record for the clique families, is compared
with a brute-force list of the maximal cliques over all vertex subsets on
the same random graphs and on the graph without lines.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinegeo.cliques import _mask_is_clique, bron_kerbosch, family_K, podmianka
from spinegeo.pencils import clique_dimension, derive_line_geometry, family_P, p_rho
from spinegeo.relations import PI, RHO, LineRelationGraph, bits_of, compute_pi, compute_rho

WIDTH = 5760  # lines of (2,6,2,0,4), the widest benchmark universe


def reference_bits_of(mask):
    """Indices of the set bits of a mask, ascending (the upward walk)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_mask_is_clique(mask, rows):
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if mask & ~(rows[v] | low):
            return False
    return True


def reference_clique_dimension(members, pencil_masks_inside):
    """The greedy spanning chain on masks over the whole line universe."""
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


def reference_family_K(graph):
    """The clique scan with found cliques as a set of wide masks, coverage
    read by testing bit j of every clique through i."""
    rows = graph.rows
    n = graph.count
    found = set()
    at_line = [[] for _ in range(n)]
    for i in range(n):
        ri = rows[i]
        through_i = at_line[i]
        for j in bits_of(ri >> (i + 1) << (i + 1)):
            covered = 0
            for m in through_i:
                if m >> j & 1:
                    covered |= m
            common_ij = ri & rows[j]
            above_j = common_ij >> (j + 1) << (j + 1)
            for k in bits_of(above_j ^ (above_j & covered)):
                if covered >> k & 1:
                    continue
                common = common_ij & rows[k]
                if not _mask_is_clique(common, rows):
                    continue
                mask = common | (1 << i) | (1 << j) | (1 << k)
                found.add(mask)
                covered |= mask
                for l in bits_of(mask >> i << i):
                    at_line[l].append(mask)
    return found


def reference_family_P(graph, family, clique_masks):
    """The pencil closure on stored clique masks and a wide `covered` mask
    per line; the sorted pencil member tuples."""
    rows = graph.rows
    at_line = family.by_line
    exchange = family.exchange if graph.delta_kind == RHO else None
    n = graph.count
    covered = [0] * n
    found = set()
    for i in range(n):
        at_i = set(at_line[i])
        above_i = rows[i] >> (i + 1) << (i + 1)
        for j in bits_of(above_i ^ (above_i & covered[i])):
            if covered[i] >> j & 1:
                continue
            through = at_i.intersection(at_line[j])
            cij = rows[i] & rows[j]
            cand = cij
            if exchange is not None:
                reach = 0
                for c in through:
                    if not exchange[c]:
                        reach |= clique_masks[c]
                cand &= reach
                if not cand:
                    continue
            once = twice = 0
            for c in through:
                twice |= once & clique_masks[c]
                once |= clique_masks[c]
            single = (cand & once) ^ (cand & twice)
            keep = cand ^ single
            for c in through:
                inside = single & clique_masks[c]
                if not inside:
                    continue
                outside = cij ^ (cij & clique_masks[c])
                for k in bits_of(inside):
                    if rows[k] & outside:
                        keep |= 1 << k
            if not keep:
                continue
            mask = keep | 1 << i | 1 << j
            members = bits_of(mask)
            found.add(tuple(members))
            for l in members:
                covered[l] |= mask
    return sorted(found)


def reference_p_rho(l1, l2, l3, graph, family, clique_masks):
    """The indexed `p_rho`, testing the common neighbourhood against the one
    clique's stored mask."""
    rows = graph.rows
    if len({l1, l2, l3}) != 3:
        return False
    if not (rows[l1] >> l2 & 1 and rows[l1] >> l3 & 1 and rows[l2] >> l3 & 1):
        return False
    by_line, exchange = family.by_line, family.exchange
    hits = set(by_line[l1]).intersection(by_line[l2], by_line[l3])
    if not any(not exchange[c] for c in hits):
        return False
    if len(hits) > 1:
        return True
    (c,) = hits
    common = rows[l1] & rows[l2] & rows[l3]
    return common & clique_masks[c] != common


def mask_of(ids):
    m = 0
    for l in ids:
        m |= 1 << l
    return m


line_ids = st.one_of(st.sampled_from([0, WIDTH - 1]), st.integers(0, WIDTH - 1))
sparse_masks = st.sets(line_ids, max_size=40).map(mask_of)


# ---------- random ints --------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_masks, st.integers(0, (1 << WIDTH) - 1)))
@example(0)
@example(1)
@example(1 << (WIDTH - 1))
@example((1 << WIDTH) - 1)
def test_bits_of_matches_reference(mask):
    assert bits_of(mask) == list(reference_bits_of(mask))


@st.composite
def graphs_with_masks(draw):
    """A random graph on a few line ids of the wide universe, its rows as a
    dict, and a subset of its lines; dense edges make cliques likely."""
    ids = draw(st.lists(line_ids, max_size=10, unique=True))
    keep = draw(st.sampled_from([0.5, 0.9, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    rows = dict.fromkeys(ids, 0)
    for a, b in itertools.combinations(ids, 2):
        if rnd.random() < keep:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    subset = [l for l in ids if rnd.random() < 0.7]
    return mask_of(subset), rows


@settings(max_examples=300, deadline=None)
@given(graphs_with_masks())
def test_mask_is_clique_matches_reference(case):
    mask, rows = case
    assert _mask_is_clique(mask, rows) == reference_mask_is_clique(mask, rows)


@st.composite
def cliques_with_pencils(draw):
    """Line ids of a clique, and line sets of two or more of its lines."""
    members = draw(st.lists(line_ids, min_size=2, max_size=12, unique=True))
    subsets = st.lists(st.sampled_from(members), min_size=2, unique=True)
    pencils = draw(st.lists(subsets, min_size=1, max_size=8))
    return members, [tuple(sorted(p)) for p in pencils]


@settings(max_examples=300, deadline=None)
@given(cliques_with_pencils())
def test_clique_dimension_matches_reference(case):
    members, pencils = case
    wide = [mask_of(p) for p in pencils]
    assert clique_dimension(sorted(members), pencils) == \
        reference_clique_dimension(members, wide)


# ---------- cfg1's rows, cliques and pencils ----------------------------------------

def test_kernels_on_cfg1_rows_and_cliques(cfg1_pi, cfg1_rho):
    for graph in (cfg1_pi, cfg1_rho):
        rows = graph.rows
        for row in rows:
            assert bits_of(row) == list(reference_bits_of(row))
        cliques = family_K(graph)
        assert cliques.members
        for mem in cliques.members:
            mask = mask_of(mem)
            assert bits_of(mask) == list(mem)
            outside = bits_of(rows[mem[0]] ^ (rows[mem[0]] & mask))[:2]
            # the clique, one line short of it, and one line more
            for m in (mask, mask ^ 1 << mem[-1], *(mask | 1 << l for l in outside)):
                assert _mask_is_clique(m, rows) == reference_mask_is_clique(m, rows)


def test_clique_dimension_on_cfg1_cliques(cfg1_pi, cfg1_rho):
    for graph in (cfg1_pi, cfg1_rho):
        geometry = derive_line_geometry(graph, family_K(graph))
        pencils = geometry.pencils.members
        compared = 0
        for ci, mem in enumerate(geometry.cliques.members):
            inside = [pencils[p] for p in geometry.pencils_in_clique[ci]]
            if not inside:
                continue
            got = clique_dimension(mem, inside)
            assert got == geometry.clique_dims[ci]
            assert got == reference_clique_dimension(mem, [mask_of(p) for p in inside])
            compared += 1
        assert compared


# ---------- clique families without masks, against the mask-based bodies ----------------

def compare_families(graph):
    """family_K, family_P and the indexed p_rho on `graph` against the
    references; the number of triples compared."""
    fam = family_K(graph)
    pairs = sorted((tuple(bits_of(m)), m) for m in reference_family_K(graph))
    assert fam.members == [mem for mem, _ in pairs]
    masks = [m for _, m in pairs]
    if graph.delta_kind == RHO:
        assert fam.exchange == [podmianka(mem, graph) for mem, _ in pairs]
    else:
        assert fam.exchange is None
    assert family_P(graph, fam).members == reference_family_P(graph, fam, masks)
    triples = 0
    if graph.delta_kind == RHO:
        for mem in fam.members:
            for tri in itertools.combinations(mem, 3):
                assert p_rho(*tri, graph, fam) == reference_p_rho(*tri, graph, fam, masks)
                triples += 1
    return triples


@st.composite
def small_graphs(draw):
    """A random relation graph of either kind on up to 14 lines."""
    n = draw(st.integers(3, 14))
    density = draw(st.sampled_from([0.3, 0.6, 0.8, 0.95]))
    rnd = draw(st.randoms(use_true_random=False))
    rows = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rnd.random() < density:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return LineRelationGraph(draw(st.sampled_from([PI, RHO])), rows)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_clique_families_match_mask_references_on_random_graphs(graph):
    compare_families(graph)


def test_clique_families_match_mask_references_on_cfg1(cfg1_pi, cfg1_rho):
    compare_families(cfg1_pi)
    assert compare_families(cfg1_rho) > 0


def test_clique_families_match_mask_references_on_cex_and_twin(cex_pi, cex_rho, twin_space):
    compare_families(cex_pi)
    compare_families(compute_pi(twin_space))
    # every triple inside every rho clique, where the count test decides
    assert compare_families(cex_rho) == 106704
    assert compare_families(compute_rho(twin_space)) == 26442


# ---------- Bron-Kerbosch against every vertex subset ------------------------


def brute_force_maximal_cliques(graph):
    """The nonempty vertex subsets that are cliques and lie in no larger
    clique, as sorted tuples, in sorted order.  A subset is a clique when it
    is empty, or when its top line relates to the rest and the rest is one."""
    rows, n = graph.rows, graph.count
    clique = [True] * (1 << n)
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        rest = mask ^ 1 << top
        clique[mask] = clique[rest] and rows[top] & rest == rest
    return sorted(
        tuple(v for v in range(n) if mask >> v & 1)
        for mask in range(1, 1 << n)
        if clique[mask] and not any(clique[mask | 1 << v] for v in range(n) if not mask >> v & 1))


@settings(max_examples=300, deadline=None)
@given(small_graphs())
@example(LineRelationGraph(PI, []))
def test_bron_kerbosch_matches_brute_force_on_random_graphs(graph):
    assert bron_kerbosch(graph) == brute_force_maximal_cliques(graph)


# ---------- shared line ids --------------------------------------------------


def test_members_of_inverts_mask_of(cfg1_pi):
    for mem in [(), (0,), (3, 257, 1469), tuple(range(0, 1470, 7))]:
        assert cfg1_pi.members_of(cfg1_pi.mask_of(mem)) == mem


def test_kept_member_tuples_hold_the_graph_ids(cfg1_ws):
    """Every line of a kept clique or pencil tuple is the
    graph's own int object for that id, not a copy per tuple."""
    stripped = cfg1_ws.stripped(PI).graph
    plain = cfg1_ws.graph(PI)
    spanned = cfg1_ws.spanned(PI)
    families = [
        (stripped, spanned.members),
        (stripped, cfg1_ws.geometry(PI).pencils.members),
        (plain, cfg1_ws.cliques(PI)),
    ]
    for graph, members in families:
        assert any(l > 256 for mem in members for l in mem)
        assert all(l is graph.ids[l] for mem in members for l in mem)
