"""The line-set kernels against the bodies they replaced.

`bits_of` and `_mask_is_clique` walk a mask from the top bit down, and
`clique_dimension` runs on masks local to the clique.  The references below
are the earlier bodies: upward walks with ``m & -m`` over masks as wide as
the line universe.  Each pair is compared on random ints (including 0,
bit 0 and the top bit of a 5 760-line universe) and on cfg1's real rows,
cliques and pencils.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinegeo.cliques import _mask_is_clique, family_K
from spinegeo.pencils import clique_dimension, derive_line_geometry
from spinegeo.relations import bits_of

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
        assert cliques.masks
        for mem, mask in zip(cliques.members, cliques.masks):
            assert bits_of(mask) == list(mem)
            outside = bits_of(rows[mem[0]] ^ (rows[mem[0]] & mask))[:2]
            # the clique, one line short of it, and one line more
            for m in (mask, mask ^ 1 << mem[-1], *(mask | 1 << l for l in outside)):
                assert _mask_is_clique(m, rows) == reference_mask_is_clique(m, rows)


def test_clique_dimension_on_cfg1_cliques(cfg1_pi, cfg1_rho):
    for graph in (cfg1_pi, cfg1_rho):
        geometry = derive_line_geometry(graph)
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
