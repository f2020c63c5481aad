"""Run configuration, the memoised pipeline, and the batch command surface.

Every command takes a `RunConfig`, writes a canonical JSON report (plus a
separate metadata file carrying the only nondeterministic content, the
timestamp), and returns the payload with an exit code: 0 all checks pass,
1 a verification failed, 2 the configuration or a gate rejected the run.
A `Workspace` computes each stage of the pipeline at most once per command,
and each relation's spanned cliques once, in `spanned(kind)`.  Nothing is
carried from one command to the next: every command builds the space and
computes the relations it needs again.  Each computed relation is also
written, in geometric line ids, under `<out>/cache/`, keyed by a digest of
the space parameters, as an output for readers outside the program; the
program never reads it back, and the workspace keeps it in stripped ids only.
Relation files are compact canonical JSON (sorted keys, no whitespace);
reports, sidecars and artifacts are `canonical_json`, one key or item a line.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import cliques, verify
from .bundles import ReconstructedSpace, reconstruct
from .cliques import (GeometricFamilies, LineSetFamily, bron_kerbosch, delta_n, family_K,
                      family_to_json, geometric_families)
from .excluded import CASE_NONE, ExcludedCase, classify_case
from .pencils import LineGeometry, derive_line_geometry, family_B, geometry_to_json
from .relations import (LineRelationGraph, StripResult, compute_pi, compute_rho,
                        graph_to_json, permute_rows, strip)
from .spine import (PLANE_AFFINE, GateReport, SpineParams, SpineSpace, build_spine,
                    standard_params, validate_params)

OK = 0
CHECK_FAILED = 1
CONFIG_ERROR = 2


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@dataclass
class RunConfig:
    q: int
    n: int
    k: int
    m: int
    w: int
    delta: str = "both"  # pi | rho | both
    seed: int = 0
    out_dir: Path = field(default_factory=lambda: Path("spinegeo-runs"))

    def deltas(self) -> list[str]:
        if self.delta == "both":
            return ["pi", "rho"]
        if self.delta in ("pi", "rho"):
            return [self.delta]
        raise ValueError(f"delta must be pi, rho or both, not {self.delta!r}")

    def space_key(self) -> dict:
        return {"q": self.q, "n": self.n, "k": self.k, "m": self.m, "w": self.w}

    def digest(self) -> str:
        doc = dict(self.space_key(), delta=self.delta, seed=self.seed)
        return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]

    def space_digest(self) -> str:
        return hashlib.sha256(canonical_json(self.space_key()).encode()).hexdigest()[:16]


# the Python types a config value may have, by the field's annotation
_ACCEPTED = {"int": (int,), "str": (str,), "Path": (str, Path)}


def config_from_sources(flags: dict, config_file: Path | None = None) -> RunConfig:
    """Merge a JSON config file with command-line flags; flags win.

    Raises TypeError for a file that does not hold a JSON object, an unknown
    key or a value of the wrong type (a bool is not an int), ValueError for a
    file that is not JSON.
    """
    merged: dict = {}
    if config_file is not None:
        doc = json.loads(Path(config_file).read_text())
        if not isinstance(doc, dict):
            raise TypeError(f"the config file must hold a JSON object, not {json.dumps(doc)}")
        merged.update(doc)
    merged.update({k: v for k, v in flags.items() if v is not None})
    for f in fields(RunConfig):  # unknown keys: RunConfig raises
        if f.name not in merged:
            continue
        value = merged[f.name]
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED[f.type]):
            raise TypeError(f"{f.name} must be {'a path' if f.type == 'Path' else f.type},"
                            f" not {value!r}")
    if "out_dir" in merged:
        merged["out_dir"] = Path(merged["out_dir"])
    return RunConfig(**merged)


def _stage(method):
    """Compute a workspace stage on first use and keep it, per argument."""
    @functools.wraps(method)
    def memoised(self, *args):
        key = (method.__name__, *args)
        if key not in self._stages:
            self._stages[key] = method(self, *args)
        return self._stages[key]
    return memoised


class Workspace:
    """The pipeline of one `RunConfig`, each stage computed at most once.

    space -> graph(kind) -> spanned(kind) -> geometry(kind) ->
    reconstruction(kind), and below the oracle cap graph(kind) -> the
    Bron-Kerbosch cliques(kind), which runs in geometric ids.  graph(kind)
    is the relation's one kept copy, in stripped ids; its `perm` and
    `inverse` map to and from the geometric ids the checks compare in.
    spanned(kind) is its one spanned clique family, families() the
    geometric clique families, and rho_outside() the pencils the rho checks
    exclude over GF(2).  `kind` is "pi" or "rho".
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._stages: dict[tuple, object] = {}

    @_stage
    def params(self) -> SpineParams:
        return standard_params(self.cfg.q, self.cfg.n, self.cfg.k, self.cfg.m, self.cfg.w)

    @_stage
    def gates(self) -> GateReport:
        return validate_params(self.params())

    @_stage
    def space(self) -> SpineSpace:
        return build_spine(self.params())

    @_stage
    def graph(self, kind: str) -> StripResult:
        """The relation, stripped with the run's seed.  Its geometric-id rows
        live only to be written to the relation file under `cache/`, which
        replaces any file there (the program never reads it)."""
        g = (compute_pi if kind == "pi" else compute_rho)(self.space())
        text = json.dumps(graph_to_json(g), sort_keys=True, separators=(",", ":")) + "\n"
        _write_atomic(self.cfg.out_dir / "cache"
                      / f"relation-{kind}-{self.cfg.space_digest()}.json", text)
        return strip(g, self.cfg.seed)

    @_stage
    def families(self) -> GeometricFamilies:
        return geometric_families(self.space())

    @_stage
    def cliques(self, kind: str) -> list[tuple[int, ...]] | None:
        """Every maximal clique as its sorted geometric line ids, in sorted
        order, or None above the oracle cap.  Bron-Kerbosch runs on the
        relation in geometric ids, the stripped rows renamed back once."""
        sr = self.graph(kind)
        if sr.graph.count > cliques.BK_MAX_LINES:
            return None
        rows = permute_rows(sr.graph.rows, sr.inverse)
        return bron_kerbosch(LineRelationGraph(kind, rows, sr.graph.ids))

    @_stage
    def spanned(self, kind: str) -> LineSetFamily:
        """The spanned cliques of the relation, with the exchange flags on rho."""
        return family_K(self.graph(kind).graph)

    @_stage
    def geometry(self, kind: str) -> LineGeometry:
        return derive_line_geometry(self.graph(kind).graph, self.spanned(kind))

    @_stage
    def reconstruction(self, kind: str) -> ReconstructedSpace:
        return reconstruct(family_B(self.geometry(kind)), self.graph(kind).graph)

    @_stage
    def rho_outside(self) -> tuple[set[tuple[int, ...]], dict | None]:
        """The pencils the rho checks exclude, and their report: over GF(2),
        the proper pencils on affine planes, with whether each spans under
        rho (the stated cause); no pencils and no report when q >= 3.

        Such a pencil is three lines, one per direction of AG(2,2), and the
        triple spans under rho; `p_rho` asks for a non-spanning triple, so it
        cannot see these pencils.
        """
        space = self.space()
        if space.params.space.q != 2:
            return set(), None
        planes = space.planes()
        outside = {p.line_ids for p in space.pencils()
                   if p.proper and planes[p.plane_id].kind == PLANE_AFFINE}
        if not outside:
            return outside, None
        rows = sorted(outside)
        rho = self.graph("rho")
        spanning = sum(delta_n([rho.perm[l] for l in p], rho.graph) for p in rows)
        return outside, {"hypothesis": "q >= 3", "count": len(rows), "spanning": spanning,
                         "cause_holds": spanning == len(rows), "pencils": rows}


def _write_atomic(path: Path, text: str) -> Path:
    """Write `text` through a temporary file in the same directory, so a
    reader sees the old content or the new, never a part."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _output_path(cfg: RunConfig, name: str) -> Path:
    return cfg.out_dir / f"{name}-{cfg.digest()}.json"


def write_report(cfg: RunConfig, name: str, payload: dict) -> Path:
    path = _write_atomic(_output_path(cfg, name), canonical_json(payload))
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _write_atomic(path.with_suffix(".meta.json"),
                  canonical_json({"written_at": stamp, "report": path.name}))
    return path


def _gates_payload(gates: GateReport) -> dict:
    return {"basic": gates.basic, "pencil": gates.pencil_gate, "bundle": gates.bundle_gate,
            "problems": gates.problems, "notes": gates.notes}


COMMANDS: dict = {}  # command name -> command, in order of definition


def command(name: str):
    """Turn `body(ws, payload) -> exit code` into the command `name`, listed
    in `COMMANDS`.

    The command validates the parameters first.  When they are invalid it
    reports the problems and returns exit code 2 without running the body;
    otherwise the body fills the payload from the command's `Workspace`.
    Either way the report is written under `name`.
    """
    def wrap(body):
        @functools.wraps(body)
        def run(cfg: RunConfig) -> tuple[dict, int]:
            ws = Workspace(cfg)
            payload: dict = {"config": dict(cfg.space_key(), delta=cfg.delta, seed=cfg.seed)}
            try:
                cfg.deltas()
                gates = ws.gates()
            except ValueError as exc:
                gates = GateReport(False, False, False, [str(exc)])
            if gates.basic:
                code = body(ws, payload)
            else:
                payload["gates"] = _gates_payload(gates)
                payload["error"] = "; ".join(gates.problems)
                code = CONFIG_ERROR
            write_report(cfg, name, payload)
            return payload, code
        COMMANDS[name] = run
        return run
    return wrap


@command("build")
def cmd_build(ws: Workspace, payload: dict) -> int:
    """Build the spine space and report its size, line kinds and gates."""
    space = ws.space()
    kinds: dict[str, int] = {}
    for ln in space.lines:
        kinds[ln.kind] = kinds.get(ln.kind, 0) + 1
    strongs: dict[str, int] = {}
    for st in space.strongs:
        strongs[st.kind] = strongs.get(st.kind, 0) + 1
    payload.update({
        "gates": _gates_payload(ws.gates()),
        "points": len(space.points),
        "lines": len(space.lines),
        "line_kinds": dict(sorted(kinds.items())),
        "strong_subspaces": dict(sorted(strongs.items())),
        "void_classes": dict(sorted(space.void_classes.items())),
        "degenerate": space.degenerate,
        "case": classify_case(space.params).tag,
    })
    return OK


@command("relations")
def cmd_relations(ws: Workspace, payload: dict) -> int:
    """Compute both line relations and check their invariants."""
    payload["sanity"] = report = verify.check_relation_sanity(ws)
    return OK if report["ok"] else CHECK_FAILED


@command("cliques")
def cmd_cliques(ws: Workspace, payload: dict) -> int:
    """Classify the maximal cliques and test the exchange criterion."""
    cfg = ws.cfg
    payload["classification"] = classification = verify.check_clique_classification(ws)
    payload["exchange"] = exchange = verify.check_exchange_criterion(ws)
    if len(ws.space().lines) <= cliques.BK_MAX_LINES:
        artifact = {}
        for kind in cfg.deltas():
            inv, family = ws.graph(kind).inverse, ws.spanned(kind)
            artifact[kind] = family_to_json(
                [tuple(sorted(inv[l] for l in mem)) for mem in family.members], ws.families(),
                family.exchange)
        payload["families_artifact"] = _write_atomic(
            _output_path(cfg, "clique-families"), canonical_json(artifact)).name
    return OK if classification["ok"] and exchange["ok"] else CHECK_FAILED


@command("pencils")
def cmd_pencils(ws: Workspace, payload: dict) -> int:
    """Recover the pencils from stripped relations and compare with the geometry."""
    payload["recovery"] = report = verify.check_pencil_recovery(ws)
    artifact = {kind: geometry_to_json(ws.geometry(kind)) for kind in ws.cfg.deltas()}
    payload["families_artifact"] = _write_atomic(
        _output_path(ws.cfg, "pencil-families"), canonical_json(artifact)).name
    return OK if report["ok"] else CHECK_FAILED


@command("reconstruct")
def cmd_reconstruct(ws: Workspace, payload: dict) -> int:
    """Reconstruct the points from stripped relations and verify the result."""
    gates = ws.gates()
    payload["gates"] = {"pencil": gates.pencil_gate, "bundle": gates.bundle_gate}
    if not gates.bundle_gate:
        payload["error"] = "; ".join(gates.notes)
        return CONFIG_ERROR
    ok = True
    for kind in ws.cfg.deltas():
        payload[kind] = report = verify.check_reconstruction(ws, kind)
        if not report["applicable"]:
            payload["error"] = report["note"]
            return CONFIG_ERROR
        ok = ok and report["ok"]
    return OK if ok else CHECK_FAILED


@command("counterexample")
def cmd_counterexample(ws: Workspace, payload: dict) -> int:
    """Build the neighbourhood-case twist and check it breaks the bundles."""
    payload["counterexample"] = report = verify.check_counterexample(ws)
    if not report["applicable"]:
        return CONFIG_ERROR
    return OK if report["ok"] else CHECK_FAILED


def reconstruction_claim(space: SpineSpace, case: ExcludedCase) -> str:
    """The case's reconstruction status, as `verify-all` reports it.

    Outside the boundary patterns the bundle gate alone does not settle it:
    the pipeline also needs every line in a strong subspace of dimension at
    least 4, so the claim is "unknown" when some line has no such host.
    """
    if case.tag == CASE_NONE and verify.lines_without_host(space):
        return "unknown"
    return str(case.star_holds)


@command("verify-all")
def cmd_verify_all(ws: Workspace, payload: dict) -> int:
    """Run every applicable structural check and summarise one line each."""
    cfg = ws.cfg
    checks = [
        ("subspace_counts", lambda ws: verify.check_subspace_counts(max_n=cfg.n, qs=(cfg.q,))),
        ("foundations", verify.check_foundations),
        ("relation_sanity", verify.check_relation_sanity),
        ("clique_classification", verify.check_clique_classification),
        ("exchange_criterion", verify.check_exchange_criterion),
        ("ternary_pencils", verify.check_ternary_pencils),
        ("pencil_recovery", verify.check_pencil_recovery),
    ]
    gates = ws.gates()
    if gates.bundle_gate:
        for kind in cfg.deltas():
            checks += [
                (f"upsilon_structure_{kind}",
                 functools.partial(verify.check_upsilon_structure, kind=kind)),
                (f"reconstruction_{kind}",
                 functools.partial(verify.check_reconstruction, kind=kind)),
            ]
    else:
        checks.append(("reconstruction", None))  # gated out: printed, not reported
    checks.append(("counterexample", verify.check_counterexample))

    payload["checks"] = {}
    for name, check in checks:
        if check is None:
            print(f"  {name}: skipped ({'; '.join(gates.notes)})")
            continue
        payload["checks"][name] = report = check(ws)
        if not report.get("applicable", True):
            print(f"  {name}: skipped ({report.get('note', 'not applicable')})")
        else:
            print(f"  {name}: {'pass' if report['ok'] else 'FAIL'}")
    space = ws.space()
    case = classify_case(space.params)
    payload["case"] = {"tag": case.tag,
                       "reconstruction_claim": reconstruction_claim(space, case)}

    failed = [name for name, rep in payload["checks"].items()
              if rep.get("applicable", True) and not rep["ok"]]
    payload["failed"] = failed
    payload["ok"] = not failed
    print(f"verify-all: {'all checks pass' if not failed else 'FAILED: ' + ', '.join(failed)}")
    return OK if not failed else CHECK_FAILED
