#!/usr/bin/env python3
"""Reconstruct the point set from a stripped line relation -- and see why it
needs every line in a strong subspace of dimension at least 4.

The pipeline: spanned cliques -> recovered pencils -> abstract dimension
-> the family of dimension->=3 cliques (the proper semibundles) -> glue
semibundles sharing a vertex -> bundles = points.

A dimension->=3 clique is a semibundle of a strong subspace of dimension at
least 4, so the pipeline needs every line to have such a host; the bundle
gate does not imply that.  On (q=2, n=6, k=2, m=0, w=2) every line lies in a
4-dimensional star and the reconstruction is exact for both relations.  On
(q=2, n=6, k=2, m=1, w=3) the bundle gate holds, but the omega lines lie
only in planes, so `check_reconstruction` reports the configuration as not
applicable.  This demo runs the pipeline there anyway to show what that
precondition protects against: the points come back perfectly but their
incidences do not.  Swap in the roomy configuration to see it succeed (it
takes about 20 s).
"""

from spinegeo import build_spine, compute_pi, standard_params, strip
from spinegeo.bundles import reconstruct, verify_equivalence
from spinegeo.cliques import family_K
from spinegeo.pencils import derive_line_geometry, family_B

ROOMY = dict(q=2, n=6, k=2, m=0, w=2)   # reconstruction succeeds, both relations
PINCHED = dict(q=2, n=6, k=2, m=1, w=3)  # bijection yes, incidence no

space = build_spine(standard_params(**PINCHED))
pi = compute_pi(space)
stripped = strip(pi, seed=11)

geometry = derive_line_geometry(stripped.graph, family_K(stripped.graph))
family = family_B(geometry)
print(f"semibundle family from the stripped graph: {len(family)} cliques")
recon = reconstruct(family, stripped.graph)
print(f"gluing classes -> {len(recon.points)} bundles "
      f"(transitive: {recon.transitive}) for {len(space.points)} points")

report = verify_equivalence(space, recon, stripped, family)
for check, ok in report["checks"].items():
    print(f"  {check:18s}: {'pass' if ok else 'FAIL'}")
if not report["checks"]["incidence"]:
    witness = report["incidence_witnesses"][0]
    print()
    print(f"point {witness['point']} misses {witness['missing_count']} of its lines,"
          f" all of kind {witness['missing_kinds']}: those lines lie only in"
          " dimension-2 strong subspaces, which no bundle can see.")
