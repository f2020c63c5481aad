"""Parameter sets outside the bundle gate, and the point-neighbourhood twist.

Five parameter patterns make the bundle gate fail in a recognisable way.
Four of them collapse to geometries where the point set is recoverable
anyway (the full Grassmann space, a single point, one star, one top).  The
fifth -- w = k, m = k-1, the neighbourhood of the point W -- genuinely
breaks reconstruction: scaling one star by a central collineation with
centre W induces a permutation of the lines that preserves both line
relations yet moves the pencil of lines through a point U inside that star
to a different vertex, so no relation-defined notion can recover points.
`build_homology_map` constructs that permutation and
`verify_counterexample` checks both halves exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import _rank, _rref_rows, apply_matrix, subspace_key
from .relations import LineRelationGraph, permute_rows
from .spine import STAR_ALPHA, SpineParams, SpineSpace, StrongSubspace, validate_params

CASE_GRASSMANN = "grassmann"
CASE_POINT = "single-point"
CASE_STAR = "star-space"
CASE_TOP = "top-space"
CASE_NEIGHBOURHOOD = "neighbourhood"
CASE_NONE = "none"


@dataclass(frozen=True)
class ExcludedCase:
    tag: str
    star_holds: bool | str  # True, or "unproved"/"unknown"
    detail: str


def classify_case(params: SpineParams) -> ExcludedCase:
    """Match the parameters against the five recognised boundary patterns.

    Outside those patterns the reconstruction status follows the bundle
    gate: provable when it holds, unknown when it fails.  The bundle
    pipeline also needs every line to lie in a strong subspace of dimension
    at least 4, which the gate does not imply and this classification does
    not test.
    """
    n, k, m, w = params.space.n, params.k, params.m, params.w_dim
    if w == n:
        return ExcludedCase(CASE_GRASSMANN, True,
                            "W is the whole space; the fragment is the Grassmann space itself")
    if w == m == k:
        return ExcludedCase(CASE_POINT, True, "the whole geometry is the single point W")
    if w == m == k - 1:
        return ExcludedCase(CASE_STAR, True,
                            "the geometry is the star over W, a projective space")
    if w == k + 1 and m == k:
        return ExcludedCase(CASE_TOP, True,
                            "the geometry is the top inside W, a projective space")
    if w == k and m == k - 1:
        return ExcludedCase(CASE_NEIGHBOURHOOD, "unproved",
                            "the geometry is the neighbourhood of the point W;"
                            " a relation-preserving line map breaks bundles")
    gates = validate_params(params)
    if gates.bundle_gate:
        return ExcludedCase(CASE_NONE, True, "bundle gate holds")
    return ExcludedCase(CASE_NONE, "unknown", "bundle gate fails; status not classified")


@dataclass(frozen=True)
class LineMap:
    """A permutation of line ids induced by a point map supported on one star."""

    perm: tuple[int, ...]
    star_id: int
    moved: tuple[int, ...]


def build_homology_map(space: SpineSpace, star: StrongSubspace, scale: int) -> LineMap:
    """Line permutation from a central collineation of one star's closure.

    The star must be one of the neighbourhood case's stars, so its closure
    is a projective space punctured at W.  The collineation fixes the
    star's base pointwise, scales a chosen W-direction by `scale`, and
    fixes a complement pointwise; points outside the star stay put.  The
    induced line map fixes every line not inside the star, and moves
    exactly the lines of the star whose closure misses W.
    """
    params = space.params
    case = classify_case(params)
    if case.tag != CASE_NEIGHBOURHOOD:
        raise ValueError(f"parameters are in case {case.tag!r}, not the neighbourhood case")
    q, n = params.space.q, params.space.n
    if q < 3:
        raise ValueError("a nonidentity central collineation needs q >= 3")
    if not 1 < scale < q:
        raise ValueError(f"scale must lie in [2, q), got {scale}")
    if star.kind != STAR_ALPHA:
        raise ValueError("the neighbourhood case twist lives on a star")

    h, w = star.generator, params.w
    # a W-direction off H, then a greedy complement of H + W-direction
    basis = list(h.rows)
    w_vec = next(row for row in w.rows if _rank(basis + [row], q, n) == len(basis) + 1)
    basis.append(w_vec)
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        if len(basis) < n and _rank(basis + [unit], q, n) == len(basis) + 1:
            basis.append(unit)
    # T fixes the axis span(H, complement) pointwise and scales w_vec: with
    # phi the functional whose kernel is the axis, v T = v + c phi(v) w_vec
    # where c = (scale - 1) / phi(w_vec), so row i of T is e_i + c phi_i w_vec.
    # The axis is a hyperplane; phi is 1 at its RREF's one free column f and
    # -row[f] at each row's pivot.
    axis = _rref_rows(basis[:h.dim] + basis[h.dim + 1:], q, n)
    pivots = [row.index(1) for row in axis]
    (free,) = set(range(n)) - set(pivots)
    phi = [0] * n
    phi[free] = 1
    for p, row in zip(pivots, axis):
        phi[p] = -row[free] % q
    c = (scale - 1) * pow(sum(a * b for a, b in zip(phi, w_vec)) % q, q - 2, q)
    t_mat = [[(int(i == j) + c * phi[i] * w_vec[j]) % q for j in range(n)] for i in range(n)]

    w_gid = space.gid_of[subspace_key(w)]
    perm = list(range(len(space.lines)))
    moved = []
    for lid in star.line_ids:
        ln = space.lines[lid]
        h_img = apply_matrix(ln.h, t_mat)
        b_img = apply_matrix(ln.b, t_mat)
        assert h_img == ln.h, "the star base must stay fixed"
        target = space.line_id_by_hb[(h_img.rows, b_img.rows)]
        perm[lid] = target
        if target != lid:
            moved.append(lid)
        # lines whose closure passes through the centre W are invariant;
        # so are the lines inside the axis, hence no converse assertion
        if w_gid in ln.closure_gids:
            assert target == lid
    assert sorted(perm) == list(range(len(space.lines))), "line map must be a bijection"
    return LineMap(tuple(perm), star.id, tuple(moved))


def verify_counterexample(space: SpineSpace, lmap: LineMap,
                          pi_graph: LineRelationGraph,
                          rho_graph: LineRelationGraph) -> dict:
    """Check the twist preserves both relations yet breaks some bundle.

    (a) relation preservation is checked on every line pair for both
    relations; (b) a top through the twisted star is exhibited, whose
    shared line carries a point U with the star semibundle moved to a
    different vertex U' while the top semibundle stays put; (c) the image
    of the full line bundle at U is compared against every geometric
    bundle and matches none.
    """
    report: dict = {"checks": {}}
    perm = lmap.perm

    violations = 0
    n = len(perm)
    for name, graph in (("pi", pi_graph), ("rho", rho_graph)):
        # a row the map does not carry onto the row of its image line
        bad = sum(a != b for a, b in zip(permute_rows(graph.rows, perm), graph.rows))
        report["checks"][f"preserves_{name}"] = bad == 0
        violations += bad
    report["relation_violations"] = violations
    report["pairs_checked_per_relation"] = n * (n - 1) // 2

    star = space.strongs[lmap.star_id]
    by_strong_vertex = space.semibundles(min_p_dim=2)

    # the tops through the star's lines, each with the least line it shares
    shared_line: dict[int, int] = {}
    for lid in star.line_ids:
        if space.top_of_line[lid] is not None:
            shared_line.setdefault(space.top_of_line[lid], lid)
    witness = None
    for top_id, line_id in sorted(shared_line.items()):
        top = space.strongs[top_id]
        for pid in sorted(star.point_pids & top.point_pids):
            gid = space.proper_gids[pid]
            k_star = by_strong_vertex.get((star.id, gid))
            k_top = by_strong_vertex.get((top.id, gid))
            if k_star is None or k_top is None:
                continue
            img_star = tuple(sorted(perm[l] for l in k_star))
            img_top = tuple(sorted(perm[l] for l in k_top))
            if img_top != k_top:
                continue
            if img_star != k_star:
                # the vertex the star semibundle moved to
                key = space.semibundle_at(img_star)
                moved_to = key[1] if key is not None and key[0] == star.id else None
                if moved_to is not None and moved_to != gid:
                    witness = {
                        "top": top.id, "shared_line": line_id,
                        "vertex": pid, "vertex_gid": gid, "moved_to_gid": moved_to,
                    }
                    break
        if witness:
            break
    report["checks"]["semibundle_moved"] = witness is not None
    report["witness"] = witness

    bundle_broken = False
    if witness is not None:
        # the lines through a proper point: its bundle
        bundle = space.lines_through.get(witness["vertex_gid"], ())
        all_bundles = {space.lines_through.get(g2, ()) for g2 in space.proper_gids}
        bundle_broken = tuple(sorted(perm[l] for l in bundle)) not in all_bundles
        report["moved_bundle_size"] = len(bundle)
    report["checks"]["bundle_not_preserved"] = bundle_broken
    report["ok"] = all(report["checks"].values())
    return report

