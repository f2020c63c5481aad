"""Run configuration, the memoised pipeline, and the batch command surface.

Every command takes a `RunConfig`, writes a canonical JSON report (plus a
separate metadata file carrying the only nondeterministic content, the
timestamp), and returns the payload with an exit code: 0 all checks pass,
1 a verification failed, 2 the configuration or a gate rejected the run.
A `Workspace` computes each stage of the pipeline at most once per command.
The relation graphs are also cached on disk under a digest of the space
parameters and reused when the digest matches; the space itself is built
again by every command.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import verify
from .bundles import ReconstructedSpace, reconstruct
from .cliques import (CliqueFamily, GeometricFamilies, bron_kerbosch, family_K,
                      family_to_json, geometric_families)
from .excluded import CASE_NONE, ExcludedCase, classify_case
from .pencils import LineGeometry, derive_line_geometry, family_B, geometry_to_json
from .relations import (LineRelationGraph, StripResult, compute_pi, compute_rho,
                        graph_from_json, graph_to_json, strip)
from .spine import (GateReport, SpineParams, SpineSpace, build_spine, standard_params,
                    validate_params)

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
    bk_max_lines: int = 5000
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
        doc = dict(self.space_key(), delta=self.delta, seed=self.seed,
                   bk_max_lines=self.bk_max_lines)
        return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]

    def space_digest(self) -> str:
        return hashlib.sha256(canonical_json(self.space_key()).encode()).hexdigest()[:16]


def config_from_sources(flags: dict, config_file: Path | None = None) -> RunConfig:
    """Merge a JSON config file with command-line flags; flags win."""
    merged: dict = {}
    if config_file is not None:
        merged.update(json.loads(Path(config_file).read_text()))
    merged.update({k: v for k, v in flags.items() if v is not None})
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

    space -> graph(kind) -> the spanned family(kind) and, below the oracle
    cap, the Bron-Kerbosch cliques(kind); graph(kind) -> stripped(kind) ->
    geometry(kind) -> reconstruction(kind).  families() are the geometric
    clique families the checks compare against.  `kind` is "pi" or "rho".
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
    def graph(self, kind: str) -> LineRelationGraph:
        path = self.cfg.out_dir / "cache" / f"relation-{kind}-{self.cfg.space_digest()}.json"
        if path.exists():
            return graph_from_json(json.loads(path.read_text()))
        g = (compute_pi if kind == "pi" else compute_rho)(self.space())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_json(graph_to_json(g)))
        return g

    @_stage
    def families(self) -> GeometricFamilies:
        return geometric_families(self.space())

    @_stage
    def cliques(self, kind: str) -> list[int] | None:
        """Every maximal clique (Bron-Kerbosch), or None above the oracle cap."""
        g = self.graph(kind)
        if g.count > self.cfg.bk_max_lines:
            return None
        return bron_kerbosch(g, self.cfg.bk_max_lines)

    @_stage
    def family(self, kind: str) -> CliqueFamily:
        return family_K(self.graph(kind))

    @_stage
    def stripped(self, kind: str) -> StripResult:
        return strip(self.graph(kind), self.cfg.seed)

    @_stage
    def geometry(self, kind: str) -> LineGeometry:
        return derive_line_geometry(self.stripped(kind).graph)

    @_stage
    def reconstruction(self, kind: str) -> ReconstructedSpace:
        return reconstruct(family_B(self.geometry(kind)), self.stripped(kind).graph)


def write_report(cfg: RunConfig, name: str, payload: dict) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{name}-{cfg.digest()}.json"
    path.write_text(canonical_json(payload))
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "report": path.name}
    (cfg.out_dir / f"{name}-{cfg.digest()}.meta.json").write_text(canonical_json(meta))
    return path


def _write_artifact(cfg: RunConfig, name: str, doc) -> str:
    path = cfg.out_dir / f"{name}-{cfg.digest()}.json"
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(doc))
    return path.name


def _gates_payload(gates: GateReport) -> dict:
    return {"basic": gates.basic, "pencil": gates.pencil_gate, "bundle": gates.bundle_gate,
            "problems": gates.problems, "notes": gates.notes}


def command(name: str):
    """Turn `body(ws, payload, ...) -> exit code` into the command `name`.

    The command validates the parameters first.  When they are invalid it
    reports the problems and returns exit code 2 without running the body;
    otherwise the body fills the payload from the command's `Workspace`.
    Either way the report is written under `name`.
    """
    def wrap(body):
        @functools.wraps(body)
        def run(cfg: RunConfig, **kwargs) -> tuple[dict, int]:
            ws = Workspace(cfg)
            payload: dict = {"config": dict(cfg.space_key(), delta=cfg.delta, seed=cfg.seed)}
            try:
                cfg.deltas()
                gates = ws.gates()
            except ValueError as exc:
                gates = GateReport(False, False, False, [str(exc)])
            if gates.basic:
                code = body(ws, payload, **kwargs)
            else:
                payload["gates"] = _gates_payload(gates)
                payload["error"] = "; ".join(gates.problems)
                code = CONFIG_ERROR
            write_report(cfg, name, payload)
            return payload, code
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
    """Compute (or load) both line relations and check their invariants."""
    payload["sanity"] = report = verify.check_relation_sanity(ws)
    return OK if report["ok"] else CHECK_FAILED


@command("cliques")
def cmd_cliques(ws: Workspace, payload: dict) -> int:
    """Classify the maximal cliques and test the exchange criterion."""
    cfg = ws.cfg
    payload["classification"] = classification = verify.check_clique_classification(ws)
    payload["exchange"] = exchange = verify.check_exchange_criterion(ws)
    if len(ws.space().lines) <= cfg.bk_max_lines:
        artifact = {kind: family_to_json(ws.space(), ws.graph(kind), ws.family(kind),
                                         ws.families(), with_exchange=kind == "rho")
                    for kind in cfg.deltas()}
        payload["families_artifact"] = _write_artifact(cfg, "clique-families", artifact)
    return OK if classification["ok"] and exchange["ok"] else CHECK_FAILED


@command("pencils")
def cmd_pencils(ws: Workspace, payload: dict) -> int:
    """Recover the pencils from stripped relations and compare with the geometry."""
    payload["recovery"] = report = verify.check_pencil_recovery(ws)
    artifact = {kind: geometry_to_json(ws.geometry(kind)) for kind in ws.cfg.deltas()}
    payload["families_artifact"] = _write_artifact(ws.cfg, "pencil-families", artifact)
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
    if case.tag == CASE_NONE and verify._lines_without_host(space):
        return "unknown"
    return str(case.star_holds)


@command("verify-all")
def cmd_verify_all(ws: Workspace, payload: dict, echo=print) -> int:
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
        checks.append(("reconstruction", None))  # gated out: echoed, not reported
    checks.append(("counterexample", verify.check_counterexample))

    payload["checks"] = {}
    for name, check in checks:
        if check is None:
            echo(f"  {name}: skipped ({'; '.join(gates.notes)})")
            continue
        payload["checks"][name] = report = check(ws)
        if not report.get("applicable", True):
            echo(f"  {name}: skipped ({report.get('note', 'not applicable')})")
        else:
            echo(f"  {name}: {'pass' if report['ok'] else 'FAIL'}")
    space = ws.space()
    case = classify_case(space.params)
    payload["case"] = {"tag": case.tag,
                       "reconstruction_claim": reconstruction_claim(space, case)}

    failed = [name for name, rep in payload["checks"].items()
              if rep.get("applicable", True) and not rep["ok"]]
    payload["failed"] = failed
    payload["ok"] = not failed
    echo(f"verify-all: {'all checks pass' if not failed else 'FAILED: ' + ', '.join(failed)}")
    return OK if not failed else CHECK_FAILED
