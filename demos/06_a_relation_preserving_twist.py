#!/usr/bin/env python3
"""A line permutation that preserves both relations but no point structure.

Take the fragment of 2-subspaces of GF(3)^5 meeting a fixed 2-subspace W
in dimension 1 -- the neighbourhood of the point W.  Scaling one star by a
central collineation with centre W moves lines around inside that star
while fixing everything else, and it preserves coplanarity and the
common-pencil relation exactly.  But it slides the lines through a point
U of the star to a different vertex U', so the bundle of lines at U is
not carried to any bundle: no formula over the line relations can pin
down points here.
"""

from spinegeo import build_spine, compute_pi, compute_rho, standard_params, strip
from spinegeo.excluded import build_homology_map, classify_case, verify_counterexample

space = build_spine(standard_params(q=3, n=5, k=2, m=1, w=2))
case = classify_case(space.params)
print(f"case: {case.tag} ({case.detail})")
print(f"points {len(space.points)}, lines {len(space.lines)}")

# the relations as the abstract side sees them: ids shuffled, geometry gone
pi = strip(compute_pi(space), seed=11)
rho = strip(compute_rho(space), seed=11)
star = next(s for s in space.strongs if s.kind == "alpha-star")
twist = build_homology_map(space, star, scale=2)
print(f"\nthe twist moves {len(twist.moved)} lines, all inside star {star.id}")

report = verify_counterexample(space, twist, pi, rho)
print("preserves coplanarity:", report["checks"]["preserves_pi"])
print("preserves common-pencil:", report["checks"]["preserves_rho"])
assert report["checks"]["preserves_pi"] and report["checks"]["preserves_rho"]
w = report["witness"]
print(f"\nwitness: on the line shared by star {star.id} and top {w['top']},")
print(f"the semibundle at point {w['vertex_gid']} moves to vertex {w['moved_to_gid']}")
print("while the top's semibundle there stays put;")
print("image of the bundle at that point equals no bundle:",
      report["checks"]["bundle_not_preserved"])
assert report["checks"]["semibundle_moved"] and report["checks"]["bundle_not_preserved"]
