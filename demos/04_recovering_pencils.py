#!/usr/bin/env python3
"""Recover the pencils of lines from adjacency alone.

A pencil shows up abstractly as a maximal set in which every triple is
related but non-spanning.  On a coplanarity graph the recovered family
still contains the improper-vertex (parallel) pencils; the elimination
step works inside the dimension-2 cliques, which play the role of planes.

This configuration satisfies the pencil gate (every plane extends into a
3-dimensional strong subspace), so recovery is complete for coplanarity.
"""

from spinegeo import build_spine, compute_pi, standard_params, strip
from spinegeo.cliques import family_K
from spinegeo.pencils import derive_line_geometry

space = build_spine(standard_params(q=2, n=6, k=3, m=0, w=1))
print(f"points {len(space.points)}, lines {len(space.lines)}")
geo_proper = {p.line_ids for p in space.pencils() if p.proper}
geo_parallel3 = {p.line_ids for p in space.pencils()
                 if not p.proper and len(p.line_ids) >= 3}
print(f"geometric pencils: {len(geo_proper)} proper, "
      f"{len(geo_parallel3)} parallel with 3+ lines")

pi = compute_pi(space)
stripped = strip(pi, seed=11)
print("\nrunning the abstract pipeline on the stripped coplanarity graph ...")
geometry = derive_line_geometry(stripped.graph, family_K(stripped.graph))

members, inv = geometry.pencils.members, stripped.inverse
recovered = {frozenset(inv[l] for l in mem) for mem in members}
surviving = {frozenset(inv[l] for l in members[i]) for i in geometry.proper_pencils}
removed = {frozenset(inv[l] for l in members[i]) for i in geometry.parallel_pencils}
print(f"recovered {len(recovered)} pencils; flagged {len(removed)} as parallel")
print("surviving family == geometric proper pencils:", surviving == geo_proper)
print("flagged family   == geometric parallel pencils (3+ lines):",
      removed == geo_parallel3)
print()
print("note: the 2-line parallel pencils of the affine planes are invisible")
print("to ternary concurrency over GF(2) -- nothing to recover or remove.")
