#!/usr/bin/env python3
"""Maximal cliques of the line relations, found two independent ways.

A triple of lines "spans" when its common neighbourhood is itself a
clique; the span (triple plus neighbourhood) is then a maximal clique.
Spanning every positive triple reproduces exactly what Bron-Kerbosch
finds, and every clique matches a geometric family: the lines of a plane,
a semiflat, or the lines of a big strong subspace through one point.
"""

from collections import Counter

from spinegeo import build_spine, compute_pi, compute_rho, standard_params
from spinegeo.cliques import (
    bron_kerbosch,
    classify_clique,
    family_K,
    geometric_families,
    podmianka,
)

space = build_spine(standard_params(q=2, n=6, k=2, m=1, w=3))
pi = compute_pi(space)
rho = compute_rho(space)
fams = geometric_families(space)

for name, graph, family in (("coplanarity", pi, fams.pi_family),
                            ("common-pencil", rho, fams.rho_family)):
    spanned = set(family_K(graph).members)
    oracle = set(bron_kerbosch(graph))
    print(f"{name}: spanned {len(spanned)}, oracle {len(oracle)}, "
          f"geometric {len(family)}; all equal: {spanned == oracle == family}")
    assert spanned == oracle == family

print()
print("classification of the common-pencil cliques, with the exchange test")
print("(swap one line for an outside line and stay a maximal clique):")
census: Counter = Counter()
for mem in bron_kerbosch(rho):
    kind, _ = classify_clique(mem, fams)
    census[(kind, podmianka(mem, rho))] += 1
for (kind, flag), count in sorted(census.items()):
    print(f"  {kind:20s} exchange={str(flag):5s} : {count}")
assert ("affine-semiflat", True) not in census
print()
print("over GF(2) an affine semiflat is a 3-line direction selector; removing")
print("one line leaves a crossing pair whose only completion is the removed")
print("line, so the exchange fails there -- it needs at least 4 directions.")
