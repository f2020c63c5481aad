"""spinegeo: finite spine spaces and the geometry of their line relations.

Build spine spaces of projective Grassmann spaces over prime fields,
compute the binary coplanarity and common-pencil relations on lines, and
reconstruct the point geometry from the bare line-relation structure.
"""

from .gf import (
    FieldSpec,
    Subspace,
    contains,
    enumerate_between,
    enumerate_subspaces,
    intersect,
    q_binomial,
    rref,
    standard_tail_subspace,
    subspace_sum,
)
from .spine import SpineParams, SpineSpace, build_spine, standard_params, validate_params
from .relations import LineRelationGraph, compute_pi, compute_rho, strip

__all__ = [
    "FieldSpec",
    "Subspace",
    "rref",
    "subspace_sum",
    "intersect",
    "contains",
    "enumerate_subspaces",
    "enumerate_between",
    "q_binomial",
    "standard_tail_subspace",
    "SpineParams",
    "SpineSpace",
    "standard_params",
    "validate_params",
    "build_spine",
    "LineRelationGraph",
    "compute_pi",
    "compute_rho",
    "strip",
]
