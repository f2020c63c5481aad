"""Output checks for the spinegeo benchmark, computed apart from the program.

Every expected value here comes from a closed form or a property, worked
out by this module: the point count from Gaussian binomials, the gates and
the host condition from their formulas, the case from the boundary
patterns, and the relations from this module's own reader of the cache
format.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

KINDS = ("pi", "rho")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def point_count(q: int, n: int, k: int, m: int, w: int) -> int:
    """k-subspaces U of GF(q)^n with dim(U ∩ W) = m, for dim W = w."""
    return (q ** ((k - m) * (w - m)) * gaussian_binomial(w, m, q)
            * gaussian_binomial(n - w, k - m, q))


def gates(q: int, n: int, k: int, m: int, w: int) -> dict[str, bool]:
    return {"pencil": n - k >= 3 and k - m >= 3,
            "bundle": (n - k >= 4 and w != m + 1) or (k - m >= 4 and k != m + 1)}


def case_tag(q: int, n: int, k: int, m: int, w: int) -> str:
    """The boundary pattern the parameters match, or "none"."""
    if w == n:
        return "grassmann"
    if w == m == k:
        return "point"
    if w == m == k - 1:
        return "star-space"
    if w == k + 1 and m == k:
        return "top-space"
    if w == k and m == k - 1:
        return "neighbourhood"
    return "none"


def has_big_host(kind: str, q: int, n: int, k: int, m: int, w: int) -> bool:
    """Whether a line of this kind lies in a strong subspace of dimension >= 4.

    A line's hosts are its star and its top; their dimensions give the
    closed forms below.
    """
    bound = {"affine": max(n - k, k), "alpha": max(n - k, k - m),
             "omega": max(w - m, k)}[kind]
    return bound >= 4


def expected_checks(cfg: tuple, line_kinds: dict[str, int]) -> dict[str, bool]:
    """Every check `verify-all` must report, mapped to whether it applies."""
    q, n, k, m, w = cfg
    gate = gates(*cfg)
    checks = {"subspace_counts": True, "foundations": True, "relation_sanity": True,
              "clique_classification": True, "exchange_criterion": True,
              "ternary_pencils": gate["pencil"], "pencil_recovery": True,
              "counterexample": case_tag(*cfg) == "neighbourhood" and q >= 3}
    if gate["bundle"]:
        hosted = all(has_big_host(kind, *cfg) for kind, count in line_kinds.items() if count)
        for kind in KINDS:
            checks[f"upsilon_structure_{kind}"] = True
            checks[f"reconstruction_{kind}"] = hosted
    return checks


def _config_problems(report: dict, cfg: tuple, seed: int) -> list[str]:
    want = dict(zip("qnkmw", cfg), seed=seed)
    got = {key: report.get("config", {}).get(key) for key in want}
    return [] if got == want else [f"config {got} is not {want}"]


def check_build(report: dict, cfg: tuple, seed: int) -> list[str]:
    problems = _config_problems(report, cfg, seed)
    points = point_count(*cfg)
    if report.get("points") != points:
        problems.append(f"build: {report.get('points')} points, expected {points}")
    want_gates = gates(*cfg)
    got_gates = {g: report.get("gates", {}).get(g) for g in want_gates}
    if got_gates != want_gates:
        problems.append(f"build: gates {got_gates}, expected {want_gates}")
    if sum(report.get("line_kinds", {}).values()) != report.get("lines"):
        problems.append("build: line kinds do not add up to the line count")
    if report.get("case") != case_tag(*cfg):
        problems.append(f"build: case {report.get('case')!r}, expected {case_tag(*cfg)!r}")
    return problems


def check_verify_all(report: dict, cfg: tuple, seed: int,
                     line_kinds: dict[str, int]) -> list[str]:
    """Check set, applicability and verdicts of a `verify-all` report."""
    problems = _config_problems(report, cfg, seed)
    checks = report.get("checks", {})
    want = expected_checks(cfg, line_kinds)
    for name in sorted(want.keys() - checks.keys()):
        problems.append(f"verify-all: check {name} dropped")
    for name in sorted(checks.keys() - want.keys()):
        problems.append(f"verify-all: unexpected check {name}")
    for name in sorted(want.keys() & checks.keys()):
        applicable = checks[name].get("applicable", True)
        if applicable != want[name]:
            state = "applicable" if applicable else "skipped"
            problems.append(f"verify-all: {name} is {state}, expected the opposite")
        elif applicable and checks[name].get("ok") is not True:
            problems.append(f"verify-all: {name} failed")
    if report.get("ok") is not True or report.get("failed"):
        problems.append(f"verify-all: report not ok (failed: {report.get('failed')})")
    if report.get("case", {}).get("tag") != case_tag(*cfg):
        problems.append(f"verify-all: case {report.get('case')}, expected {case_tag(*cfg)}")
    sizes = sum(d + 1 for d in range(3, cfg[1] + 1))  # every (dimension, k) pair checked
    if checks.get("subspace_counts", {}).get("checked") != sizes:
        problems.append(f"verify-all: subspace counts cover "
                        f"{checks.get('subspace_counts', {}).get('checked')} sizes, expected {sizes}")
    for kind in KINDS:
        rec = checks.get(f"reconstruction_{kind}", {})
        if want.get(f"reconstruction_{kind}") is False:
            uncovered = {kd: c for kd, c in line_kinds.items()
                         if c and not has_big_host(kd, *cfg)}
            if rec.get("uncovered_lines") != uncovered:
                problems.append(f"verify-all: reconstruction_{kind} names "
                                f"{rec.get('uncovered_lines')}, expected {uncovered}")
    return problems


def check_reconstruct(report: dict, cfg: tuple, seed: int, kind: str) -> list[str]:
    """A full reconstruction: one bundle per point, every sub-check true."""
    problems = _config_problems(report, cfg, seed)
    points = point_count(*cfg)
    rec = report.get(kind, {})
    if "error" in report or rec.get("applicable") is not True or rec.get("ok") is not True:
        problems.append(f"reconstruct: {kind} not applicable or not ok ({report.get('error')})")
    if not rec.get("bundle_count") == rec.get("point_count") == points:
        problems.append(f"reconstruct: {rec.get('bundle_count')} bundles and "
                        f"{rec.get('point_count')} points, expected {points}")
    subchecks = rec.get("checks", {})
    if not subchecks or not all(value is True for value in subchecks.values()):
        problems.append(f"reconstruct: equivalence sub-checks {subchecks}")
    if not rec.get("family_size"):
        problems.append("reconstruct: empty semibundle family")
    gate = gates(*cfg)
    if report.get("gates") != gate:
        problems.append(f"reconstruct: gates {report.get('gates')}, expected {gate}")
    return problems


# -- relation caches ----------------------------------------------------------


def cache_path(out_dir: Path, cfg: tuple, kind: str) -> Path:
    """Where `spinegeo` caches a relation: keyed by a digest of (q, n, k, m, w)."""
    key = json.dumps(dict(zip("qnkmw", cfg)), sort_keys=True, indent=1) + "\n"
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return out_dir / "cache" / f"relation-{kind}-{digest}.json"


def read_relation(path: Path) -> tuple[int, set[int]]:
    """Line count and directed edges (i * count + j) of a cached relation.

    Each row is a run-length encoding: comma-separated run lengths that
    alternate between absent and present neighbours, absent first.
    """
    doc = json.loads(path.read_text())
    count = doc["count"]
    if len(doc["adjacency"]) != count:
        raise ValueError(f"{path.name}: {len(doc['adjacency'])} rows for {count} lines")
    edges: set[int] = set()
    for i, text in enumerate(doc["adjacency"]):
        pos = 0
        for run, length in enumerate(int(part) for part in text.split(",")):
            if run % 2:
                edges.update(range(i * count + pos, i * count + pos + length))
            pos += length
        if pos != count:
            raise ValueError(f"{path.name}: row {i} covers {pos} of {count} lines")
    return count, edges


def relation_problems(count: int, edges: set[int], name: str) -> list[str]:
    """Irreflexive and symmetric, each reported with one witness."""
    problems = []
    loop = next((e for e in edges if e // count == e % count), None)
    if loop is not None:
        problems.append(f"{name}: line {loop // count} related to itself")
    odd = next((e for e in edges if (e % count) * count + e // count not in edges), None)
    if odd is not None:
        problems.append(f"{name}: ({odd // count}, {odd % count}) is not symmetric")
    return problems


def check_caches(out_dir: Path, cfg: tuple, kinds=KINDS, lines: int | None = None,
                 edge_counts: dict[str, int] | None = None) -> list[str]:
    """Decode the relation caches of one configuration and check them.

    Each relation must be irreflexive and symmetric, rho must lie inside pi
    when both are cached, every relation must have `lines` rows, and its
    undirected edge count must equal `edge_counts[kind]` when given.
    """
    problems = []
    decoded = {}
    for kind in kinds:
        path = cache_path(out_dir, cfg, kind)
        if not path.is_file():
            problems.append(f"cache: {path.name} missing")
            continue
        try:
            count, edges = read_relation(path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            problems.append(f"cache: {path.name} unreadable: {exc}")
            continue
        decoded[kind] = edges
        problems += relation_problems(count, edges, f"cache {kind}")
        if lines is not None and count != lines:
            problems.append(f"cache {kind}: {count} lines, build reports {lines}")
        if edge_counts is not None and len(edges) // 2 != edge_counts.get(kind):
            problems.append(f"cache {kind}: {len(edges) // 2} edges, "
                            f"report says {edge_counts.get(kind)}")
    if "pi" in decoded and "rho" in decoded and not decoded["rho"] <= decoded["pi"]:
        problems.append("cache: rho is not contained in pi")
    return problems


def sanity_edges(sanity: dict) -> dict[str, int]:
    return {kind: sanity.get(f"{kind}_edges") for kind in KINDS}


# -- repeat runs --------------------------------------------------------------


def report_files(out_dir: Path) -> dict[str, bytes]:
    """Every output file except the timestamped `.meta.json` sidecars."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*.json")) if not p.name.endswith(".meta.json")}


def compare_passes(first: Path, second: Path, whole: bool) -> list[str]:
    """The second pass must write the first pass's bytes.

    With `whole`, both passes ran the same commands and must write the same
    files; otherwise the second pass ran a prefix of them (set-up only).
    """
    a, b = report_files(first), report_files(second)
    problems = [f"repeat: {name} differs between passes"
                for name in sorted(a.keys() & b.keys()) if a[name] != b[name]]
    missing = (a.keys() ^ b.keys()) if whole else (b.keys() - a.keys())
    problems += [f"repeat: {name} written by one pass only" for name in sorted(missing)]
    return problems
