"""Spine spaces: fragments of a Grassmann space cut out by a fixed subspace.

Fix W <= GF(q)^n with dim W = w.  The spine space with parameters (k, m)
keeps the k-subspaces U meeting W in dimension exactly m as proper points,
and the pencils of the ambient Grassmann space with at least two proper
points as lines.  Lines come in three classes (one affine, two projective), and the
maximal strong subspaces come in four classes (two star shapes, two top
shapes), each a projective space with a subspace removed ("slit" space).

A built space enumerates each of its generators once (the k-, (k-1)- and
(k+1)-subspaces, each listed with its meet with W) and keeps one index per
incidence: lines through each closure point, each line's star and top, line
ids by (H, B) and k-subspace ids by packed basis.  The work of one pencil
base H is done once per H, not once per line: one interval above H lists its
candidate spans B with their meets with W, each as a lift (u, v) of B modulo
H, and a line's closure points are read off its lift (H plus each nonzero
combination of u and v), each canonicalised once per H.  The closure of
every strong subspace, star or top, and of every plane is the union of its
lines' closures, and a plane's pencils are its lines grouped by the closure
points they pass through.  Planes and line pencils are materialised on
demand and cached.  Every line set kept here is an ascending tuple of line
ids (lines are numbered as they are found).  The module also runs the two
foundational structure checks used by the verification suite: the star/top
intersection dichotomy and the tripod span property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .gf import (
    FieldSpec,
    Interval,
    Subspace,
    contains,
    enumerate_between,
    full_subspace,
    intersect,
    standard_tail_subspace,
    subspace_key,
    subspace_sum,
    subspaces_meeting,
    zero_subspace,
    _rank,
)

LINE_AFFINE = "affine"
LINE_ALPHA = "alpha"
LINE_OMEGA = "omega"

STAR_OMEGA = "omega-star"
STAR_ALPHA = "alpha-star"
TOP_ALPHA = "alpha-top"
TOP_OMEGA = "omega-top"

PLANE_PROJECTIVE = "projective"
PLANE_PUNCTURED = "punctured"
PLANE_AFFINE = "affine"


@dataclass(frozen=True)
class SpineParams:
    """Parameters (q, n, k, m) plus the fixed reference subspace W."""

    space: FieldSpec
    k: int
    m: int
    w: Subspace

    @property
    def w_dim(self) -> int:
        return self.w.dim


def standard_params(q: int, n: int, k: int, m: int, w: int) -> SpineParams:
    """Parameters with W spanned by the last w standard basis vectors.

    The linear group acts transitively on w-subspaces, so the choice of W
    is irrelevant up to isomorphism; fixing it keeps runs reproducible.
    """
    space = FieldSpec(q, n)
    return SpineParams(space, k, m, standard_tail_subspace(space, w))


@dataclass
class GateReport:
    """Which of the construction gates the parameters satisfy.

    basic: the dimension inequalities making the point set well defined.
    pencil_gate: 3 <= n-k and 3 <= k-m, needed for the abstract recovery
        of line pencils to cover every plane.
    bundle_gate: (4 <= n-k and w != m+1) or (4 <= k-m and k != m+1), the
        gate of the bundle-based point reconstruction.  The reconstruction
        also needs every line to lie in a strong subspace of dimension at
        least 4, which this gate does not imply; the reconstruction check
        tests that condition separately.
    """

    basic: bool
    pencil_gate: bool
    bundle_gate: bool
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def validate_params(p: SpineParams) -> GateReport:
    n, k, m, w = p.space.n, p.k, p.m, p.w_dim
    problems = []
    if not 1 < k < n - 1:
        problems.append(f"need 1 < k < n-1, got k={k}, n={n}")
    if m < 0:
        problems.append(f"m = {m} is negative")
    if m > min(k, w):
        problems.append(f"m = {m} exceeds min(k, w) = {min(k, w)}")
    if m < k - (n - w):
        problems.append(f"m = {m} below k - codim(W) = {k - (n - w)}")
    pencil_gate = (n - k >= 3) and (k - m >= 3)
    bundle_gate = (n - k >= 4 and w != m + 1) or (k - m >= 4 and k != m + 1)
    notes = []
    if not pencil_gate:
        notes.append(f"pencil gate fails: need 3 <= n-k (= {n - k}) and 3 <= k-m (= {k - m})")
    if not bundle_gate:
        notes.append(
            f"bundle gate fails: need 4 <= n-k (= {n - k}) with w != m+1 (w = {w}),"
            f" or 4 <= k-m (= {k - m}) with k != m+1 (k = {k})"
        )
    return GateReport(not problems, pencil_gate, bundle_gate, problems, notes)


def classify_line(dh: int, db: int, m: int) -> str | None:
    """Line class from the dimensions in which the pencil bounds meet W.

    dh and db are the meet dimensions of H and B for a pencil p(H, B).
    Returns the class name, or None when the pencil has fewer than two
    proper points.
    """
    if dh == m and db == m + 1:
        return LINE_AFFINE
    if dh == m and db == m:
        return LINE_ALPHA
    if dh == m - 1 and db == m + 1:
        return LINE_OMEGA
    return None


@dataclass(frozen=True)
class SpineLine:
    id: int
    h: Subspace
    b: Subspace
    kind: str
    # the q+1 pencil members, proper or not, in the order of the lift (u, v)
    # of B modulo H: H + v, then H + (u + t v) for t = 0, ..., q-1
    closure_gids: tuple[int, ...]
    proper_pids: tuple[int, ...]
    improper_gid: int | None  # set exactly for affine lines


@dataclass(frozen=True)
class StrongSubspace:
    id: int
    kind: str
    generator: Subspace  # H for stars, B for tops
    point_pids: frozenset[int]
    p_dim: int
    d_dim: int
    line_ids: tuple[int, ...]


@dataclass(frozen=True)
class PlaneInfo:
    id: int
    side: str  # "star" (H, Y) or "top" (Z, B)
    low: Subspace
    high: Subspace
    kind: str
    line_ids: tuple[int, ...]
    closure_gids: tuple[int, ...]
    improper_gids: tuple[int, ...]


@dataclass(frozen=True)
class GeoPencil:
    plane_id: int
    vertex_gid: int
    proper: bool
    line_ids: tuple[int, ...]  # ascending, as the plane's


class SpineSpace:
    """A built spine space: point/line tables plus derived structure caches."""

    def __init__(self, params: SpineParams):
        self.params = params
        gates = validate_params(params)
        if not gates.basic:
            raise ValueError("invalid parameters: " + "; ".join(gates.problems))
        space, k, m, w = params.space, params.k, params.m, params.w
        full = full_subspace(space)

        grass = subspaces_meeting(space, k, w)
        self.grass: list[Subspace] = [u for u, _ in grass]
        # packed canonical basis -> Grassmann id, for every k-subspace
        self.gid_of = {subspace_key(u): i for i, u in enumerate(self.grass)}
        self.proper_gids: list[int] = [g for g, (_, d) in enumerate(grass) if d == m]
        self.pid_of_gid = {g: i for i, g in enumerate(self.proper_gids)}
        self.points: list[Subspace] = [self.grass[g] for g in self.proper_gids]

        # the generators of lines and strong subspaces, each with its meet
        # with W: the (k-1)-subspaces (pencil bases, star generators) and the
        # (k+1)-subspaces (top generators)
        lows = subspaces_meeting(space, k - 1, w)
        highs = subspaces_meeting(space, k + 1, w)

        self.lines: list[SpineLine] = []
        self.line_id_by_hb: dict[tuple, int] = {}
        # line ids by pencil base H and by pencil span B: the stars' and tops' lines
        lines_by_h: dict[tuple, list[int]] = {}
        lines_by_b: dict[tuple, list[int]] = {}
        # in one build each span B is canonicalised and met with W once; each
        # pencil base H lists its candidate spans from one interval, reads each
        # line's closure off the candidate's lift, and looks each closure point
        # up once, by its `Interval.unit` vector
        spans: dict[tuple, tuple[Subspace, Subspace]] = {}
        for h, dh in lows:
            if dh not in (m - 1, m):
                continue
            candidates = Interval(h, full, k + 1)
            points: dict[int, int] = {}
            # B /\ W rows -> the improper point h + (B /\ W) of the affine lines
            improper_of: dict[tuple, Subspace] = {}
            # reject the b that are no line before canonicalising them
            # (on (3,5,2,1,2), 96 % of them)
            for lift, db in candidates.lifts_with_meet_dims(w):
                kind = classify_line(dh, db, m)
                if kind is None:
                    continue
                key = candidates.key(lift)
                if key not in spans:
                    b = Subspace(space, tuple(map(candidates.lanes.unpack, key)))
                    spans[key] = (b, intersect(b, w))
                b, b_meet_w = spans[key]
                assert b_meet_w.dim == db
                closure = self._closure_of(candidates, points, lift)
                proper = tuple(self.pid_of_gid[g] for g in closure if g in self.pid_of_gid)
                improper = tuple(g for g in closure if g not in self.pid_of_gid)
                if kind == LINE_AFFINE:
                    assert len(improper) == 1
                    if b_meet_w.rows not in improper_of:
                        improper_of[b_meet_w.rows] = subspace_sum(h, b_meet_w)
                    assert self.grass[improper[0]] == improper_of[b_meet_w.rows]
                    improper_gid = improper[0]
                else:
                    assert not improper
                    improper_gid = None
                assert len(proper) >= 2
                lid = len(self.lines)
                self.lines.append(SpineLine(lid, h, b, kind, closure, proper, improper_gid))
                self.line_id_by_hb[(h.rows, b.rows)] = lid
                lines_by_h.setdefault(h.rows, []).append(lid)
                lines_by_b.setdefault(b.rows, []).append(lid)

        self.degenerate = not self.points or not self.lines

        self.lines_through: dict[int, tuple[int, ...]] = {
            g: tuple(lids) for g, lids in self._by_closure_point(range(len(self.lines))).items()
        }

        self.strongs: list[StrongSubspace] = []
        self.void_classes: dict[str, str] = {}
        # line id -> the id of the star (same H) and the top (same B) holding it, or None
        self.star_of_line: list[int | None] = [None] * len(self.lines)
        self.top_of_line: list[int | None] = [None] * len(self.lines)
        self._build_strong(lows, highs, lines_by_h, lines_by_b)

        self._planes: list[PlaneInfo] | None = None
        self._pencils: list[GeoPencil] | None = None

    def _by_closure_point(self, line_ids) -> dict[int, list[int]]:
        """The given lines grouped by the closure points they pass through,
        points in order of first sight and lines in the given order."""
        out: dict[int, list[int]] = {}
        for lid in line_ids:
            for g in self.lines[lid].closure_gids:
                out.setdefault(g, []).append(lid)
        return out

    # -- strong subspaces --------------------------------------------------

    def _build_strong(self, lows, highs, lines_by_h, lines_by_b):
        params = self.params
        k, m = params.k, params.m
        n, wd = params.space.n, params.w_dim
        # one row per class, in id order: kind, point dimension, removed
        # dimension, generators with their meets, required meet, and the
        # class's lines by generator.  Each class listed is a projective
        # space of dimension >= 2 with a proper subspace removed, so through
        # each of its k-subspaces runs one of its lines with q >= 2 proper
        # points, and its closure is the union of its lines' closures.
        specs = [
            (STAR_OMEGA, wd - m, -1, lows, m - 1, lines_by_h),
            (STAR_ALPHA, n - k, wd - m - 1, lows, m, lines_by_h),
            (TOP_ALPHA, k - m, -1, highs, m, lines_by_b),
            (TOP_OMEGA, k, k - m - 1, highs, m + 1, lines_by_b),
        ]
        for kind, p_dim, d_dim, generators, meet, lines_by_gen in specs:
            if p_dim < 2:
                self.void_classes[kind] = f"dimension {p_dim} < 2, not a maximal strong subspace"
                continue
            if meet < 0:  # only the omega stars ask for m-1
                self.void_classes[kind] = "no (k-1)-subspace meets W in dimension m-1 = -1"
                continue
            found = 0
            for gen, meet_dim in generators:
                if meet_dim != meet:
                    continue
                line_ids = lines_by_gen.get(gen.rows, ())
                closure = [g for lid in line_ids for g in self.lines[lid].closure_gids]
                found += self._add_strong(kind, gen, closure, p_dim, d_dim, line_ids)
            if not found:
                self.void_classes[kind] = "no generator subspace exists for these parameters"

    def _closure_of(self, interval: Interval, points: dict[int, int],
                    lift: tuple[int, int]) -> tuple[int, ...]:
        """Grassmann ids of the q + 1 k-subspaces between a pencil base H (the
        interval's h) and the span B of H and a lift (u, v) of B modulo H:
        H + v, then H + (u + t v) for t = 0, ..., q - 1.  `points` maps the
        `Interval.unit` vectors above H to ids, filled on first use, so each
        closure point is canonicalised once per H for all its lines."""
        u, v = lift
        lanes, out = interval.lanes, []
        for x in [v] + [lanes.add(u, tv) for tv in lanes.multiples(v)]:
            x = interval.unit(x)
            g = points.get(x)
            if g is None:
                g = points[x] = self.gid_of[interval.key((x,))]
            out.append(g)
        return tuple(out)

    def _add_strong(self, kind, generator, closure, p_dim, d_dim, line_ids) -> int:
        pids = frozenset(self.pid_of_gid[g] for g in closure if g in self.pid_of_gid)
        if not pids:
            return 0
        sid = len(self.strongs)
        self.strongs.append(
            StrongSubspace(sid, kind, generator, pids, p_dim, d_dim, tuple(line_ids))
        )
        host_of = self.star_of_line if kind in (STAR_OMEGA, STAR_ALPHA) else self.top_of_line
        for lid in line_ids:
            host_of[lid] = sid
        return 1

    # -- planes and pencils (built on demand, cached), semibundles ----------

    def planes(self) -> list[PlaneInfo]:
        if self._planes is None:
            self._planes = self._build_planes()
        return self._planes

    def _build_planes(self) -> list[PlaneInfo]:
        params = self.params
        space, k = params.space, params.k
        q = space.q
        full = full_subspace(space)
        zero = zero_subspace(space)
        # (side, low rows, high rows) -> the plane's bounds and line ids, planes
        # in order of first sight.  The lines of the star plane (H, Y) are the
        # (H, b) with b < Y, those of the top plane (Z, B) the (h, B) with Z < h;
        # the Y above b and the Z below h repeat across lines that share them.
        # 1 < k < n-1 leaves room for both: k+2 <= n and k-2 >= 0.
        seen: dict[tuple, tuple[Subspace, Subspace, list[int]]] = {}
        ys_above: dict[tuple, list[Subspace]] = {}
        zs_below: dict[tuple, list[Subspace]] = {}
        for ln in self.lines:
            if ln.b.rows not in ys_above:
                ys_above[ln.b.rows] = enumerate_between(ln.b, full, k + 2)
            if ln.h.rows not in zs_below:
                zs_below[ln.h.rows] = enumerate_between(zero, ln.h, k - 2)
            for side, low, high in ([("star", ln.h, y) for y in ys_above[ln.b.rows]]
                                    + [("top", z, ln.b) for z in zs_below[ln.h.rows]]):
                key = (side, low.rows, high.rows)
                if key not in seen:
                    seen[key] = (low, high, [])
                seen[key][2].append(ln.id)
        planes: list[PlaneInfo] = []
        for (side, _, _), (low, high, line_ids) in seen.items():
            if len(line_ids) < 2:
                continue
            closure = tuple(dict.fromkeys(
                g for lid in line_ids for g in self.lines[lid].closure_gids))
            improper = tuple(g for g in closure if g not in self.pid_of_gid)
            if len(improper) == 0:
                kind = PLANE_PROJECTIVE
            elif len(improper) == 1:
                kind = PLANE_PUNCTURED
            elif len(improper) == q + 1 and self._collinear_gids(improper):
                kind = PLANE_AFFINE
            else:
                raise RuntimeError(
                    f"unexpected plane fragment: {len(improper)} improper points "
                    f"on a plane with {len(line_ids)} lines"
                )
            planes.append(PlaneInfo(len(planes), side, low, high, kind, tuple(line_ids),
                                    closure, improper))
        return planes

    def _collinear_gids(self, gids) -> bool:
        """True iff the distinct k-subspaces meet in dimension k-1 and span
        dimension k+1.

        The meet of all of them lies in the meet of the first two, which has
        dimension at most k-1; so the whole meet has dimension k-1 iff that
        one does and lies in every other subspace.
        """
        space, k = self.params.space, self.params.k
        subs = [self.grass[g] for g in gids]
        meet = intersect(subs[0], subs[1])
        rows = tuple(row for u in subs for row in u.rows)
        return (meet.dim == k - 1 and all(contains(u, meet) for u in subs[2:])
                and _rank(rows, space.q, space.n) == k + 1)

    def pencils(self) -> list[GeoPencil]:
        """Every geometric pencil: the lines of one plane through one of its
        closure points, q+1 of them, or q through an improper point of an
        affine plane (whose removed line is no line)."""
        if self._pencils is None:
            self._pencils = [
                GeoPencil(plane.id, g, g in self.pid_of_gid, tuple(members))
                for plane in self.planes()
                for g, members in self._by_closure_point(plane.line_ids).items()
            ]
        return self._pencils

    def semibundles(self, min_p_dim: int) -> dict[tuple[int, int], tuple[int, ...]]:
        """Line sets L_U(X) of two or more lines keyed by (strong id, vertex
        gid), U at least min_p_dim-dimensional (2 takes every listed U)."""
        table = {}
        for st in self.strongs:
            if st.p_dim < min_p_dim:
                continue
            for g, lids in self._by_closure_point(st.line_ids).items():
                if len(lids) >= 2:
                    table[(st.id, g)] = tuple(lids)
        # two lines fix their strong subspace and their common point
        assert len(set(table.values())) == len(table)
        return table

    def semibundle_at(self, lines) -> tuple[int, int] | None:
        """The (strong id, vertex gid) of the L_U(X) whose lines are `lines`,
        U any listed strong subspace (each at least 2-dimensional), or None.
        `lines` is any collection of line ids, in any order: a sorted id
        tuple as `semibundles()` keeps, or ids mapped through a permutation.

        Any two of the lines fix the only candidate key.  Distinct pencils
        share at most one member, so the lines' closures meet in at most one
        point g, which must be the vertex.  Distinct lines share at most one
        of their pencil base H and span B, so they lie in at most one common
        star (same H) or top (same B), which must be U.  Then `lines` is
        L_U(g) iff it equals the lines through g that lie in U.
        """
        if len(lines) < 2:
            return None
        it = iter(lines)
        a, b = next(it), next(it)
        common = set(self.lines[a].closure_gids).intersection(self.lines[b].closure_gids)
        if len(common) != 1:
            return None
        (g,) = common
        host_of = self.star_of_line
        if host_of[a] is None or host_of[a] != host_of[b]:
            host_of = self.top_of_line
            if host_of[a] is None or host_of[a] != host_of[b]:
                return None
        sid = host_of[a]
        through = [l for l in self.lines_through[g] if host_of[l] == sid]
        if through != sorted(lines):
            return None
        return (sid, g)

    # -- foundational checks ------------------------------------------------

    def check_fact_intersections(self) -> dict:
        """Star/top intersection dichotomy, exhaustively over listed strongs.

        Two stars (or two tops) share at most a point.  A star and a top that
        are both projective share at most a point; otherwise they are disjoint
        or share exactly the proper point set of a line.
        """
        line_point_sets = {frozenset(ln.proper_pids): ln.id for ln in self.lines}
        stars = [s for s in self.strongs if s.kind in (STAR_OMEGA, STAR_ALPHA)]
        tops = [s for s in self.strongs if s.kind in (TOP_ALPHA, TOP_OMEGA)]
        violations = []
        checked = 0
        for fam in (stars, tops):
            for i in range(len(fam)):
                pi = fam[i].point_pids
                for j in range(i + 1, len(fam)):
                    checked += 1
                    inter = pi & fam[j].point_pids
                    if len(inter) > 1:
                        violations.append(
                            ("same-type", fam[i].id, fam[j].id, sorted(inter))
                        )
        for s in stars:
            s_proj = s.d_dim == -1
            for t in tops:
                checked += 1
                inter = s.point_pids & t.point_pids
                if s_proj and t.d_dim == -1:
                    if len(inter) > 1:
                        violations.append(("proj-star-top", s.id, t.id, sorted(inter)))
                else:
                    if inter and inter not in line_point_sets:
                        violations.append(("star-top", s.id, t.id, sorted(inter)))
        return {"pairs_checked": checked, "violations": violations, "ok": not violations}

    def check_tripod_span(self) -> dict:
        """Tripods (pairwise coplanar concurrent lines, not on a plane) span a
        listed star or top.

        Lines through a common closure point are pairwise coplanar iff they
        share their pencil base H or their pencil span B, and a same-base
        family contains a non-coplanar triple iff it does not fit in a single
        plane; in that case the common star (resp. top) must exist.

        The lines through each closure point are grouped by H and by B here,
        not read off `semibundles()`: this independently checks the strong
        subspace listing that both line relations are read off.
        """
        k = self.params.k
        q, n = self.params.space.q, self.params.space.n
        violations = []
        groups_with_tripods = 0
        for g, lids in self.lines_through.items():
            by_h: dict[tuple, list[int]] = {}
            by_b: dict[tuple, list[int]] = {}
            for lid in lids:
                by_h.setdefault(self.lines[lid].h.rows, []).append(lid)
                by_b.setdefault(self.lines[lid].b.rows, []).append(lid)
            for members in by_h.values():
                if len(members) < 3:
                    continue
                rows = []
                for lid in members:
                    rows.extend(self.lines[lid].b.rows)
                if _rank(tuple(rows), q, n) > k + 2:  # not all in one plane
                    groups_with_tripods += 1
                    if self.star_of_line[members[0]] is None:
                        violations.append(("star", g, tuple(members)))
            for members in by_b.values():
                if len(members) < 3:
                    continue
                meet = self.lines[members[0]].h
                for lid in members[1:]:
                    meet = intersect(meet, self.lines[lid].h)
                if meet.dim < k - 2:  # not all in one plane
                    groups_with_tripods += 1
                    if self.top_of_line[members[0]] is None:
                        violations.append(("top", g, tuple(members)))
        return {
            "vertices_checked": len(self.lines_through),
            "groups_with_tripods": groups_with_tripods,
            "violations": violations,
            "ok": not violations,
        }

    # -- export --------------------------------------------------------------

    def to_json(self) -> dict:
        """Space as a JSON document; canonical bases as row-major digit strings."""

        def digits(sub: Subspace) -> str:
            return "".join(str(x) for row in sub.rows for x in row)

        p = self.params
        return {
            "params": {"q": p.space.q, "n": p.space.n, "k": p.k, "m": p.m, "w": p.w_dim,
                       "w_basis": digits(p.w)},
            "points": [digits(self.grass[g]) for g in self.proper_gids],
            "lines": [
                {
                    "id": ln.id,
                    "kind": ln.kind,
                    "h": digits(ln.h),
                    "b": digits(ln.b),
                    "proper_points": list(ln.proper_pids),
                    "improper_point": (digits(self.grass[ln.improper_gid])
                                       if ln.improper_gid is not None else None),
                }
                for ln in self.lines
            ],
            "strong_subspaces": [
                {
                    "id": st.id,
                    "kind": st.kind,
                    "generator": digits(st.generator),
                    "points": sorted(st.point_pids),
                    "p_dim": st.p_dim,
                    "d_dim": st.d_dim,
                    "lines": sorted(st.line_ids),
                }
                for st in self.strongs
            ],
            "void_classes": dict(sorted(self.void_classes.items())),
        }


def build_spine(params: SpineParams) -> SpineSpace:
    """Construct the spine space; degenerate parameter sets flag rather than fail."""
    return SpineSpace(params)


def space_json_text(space: SpineSpace) -> str:
    return json.dumps(space.to_json(), sort_keys=True, indent=1) + "\n"
