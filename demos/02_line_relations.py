#!/usr/bin/env python3
"""The two binary relations on lines, and what stripping them looks like.

Two lines are coplanar when a plane of the fragment carries both; they are
in a common pencil when additionally their closures meet at a proper
point.  Everything downstream of this script works on the stripped
structure: line ids plus adjacency, no geometry.
"""

import itertools

from spinegeo import build_spine, compute_pi, compute_rho, standard_params, strip

space = build_spine(standard_params(q=2, n=6, k=2, m=1, w=3))
pi = compute_pi(space)
rho = compute_rho(space)

print(f"lines: {pi.count}")
print(f"coplanarity edges    : {pi.edge_count()}")
print(f"common-pencil edges  : {rho.edge_count()}")
subset = all(not rho.rows[i] & ~pi.rows[i] for i in range(pi.count))
print("common-pencil is a subrelation of coplanarity:", subset)
assert subset

# a parallel pair: coplanar, but the closures meet only on the horizon
pair = next(
    p.line_ids
    for p in space.pencils()
    if not p.proper and len(p.line_ids) == 2
)
a, b = pair
print()
print(f"lines {a} and {b} are parallel affine lines on one plane:")
print("  coplanar      :", pi.adjacent(a, b))
print("  common pencil :", rho.adjacent(a, b))
assert pi.adjacent(a, b) and not rho.adjacent(a, b)

# two lines of one 4-dimensional star with disjoint closures are skew
star = next(s for s in space.strongs if s.p_dim >= 3)
skew = next(
    (x, y)
    for x, y in itertools.combinations(star.line_ids, 2)
    if not set(space.lines[x].closure_gids) & set(space.lines[y].closure_gids)
)
print(f"lines {skew[0]} and {skew[1]} sit in one star with disjoint closures:")
print("  coplanar      :", pi.adjacent(*skew))
assert not pi.adjacent(*skew)

stripped = strip(pi, seed=11)
print()
print("stripping with seed 11 relabels every line:")
degrees_kept = sorted(map(int.bit_count, stripped.graph.rows)) == sorted(map(int.bit_count, pi.rows))
print("  degree multiset preserved:", degrees_kept)
assert degrees_kept
print("  line 0 is now called", stripped.perm[0])
