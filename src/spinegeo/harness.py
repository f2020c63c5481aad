"""Run configuration, artifact caching, and the batch command surface.

Every command takes a `RunConfig`, writes a canonical JSON report (plus a
separate metadata file carrying the only nondeterministic content, the
timestamp), and returns the payload with an exit code: 0 all checks pass,
1 a verification failed, 2 the configuration or a gate rejected the run.
Heavy artifacts (the built space, the relation graphs) are cached under a
digest of the generating parameters and reused when the digest matches.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import verify
from .excluded import CASE_NONE, ExcludedCase, classify_case
from .relations import compute_pi, compute_rho, graph_from_json, graph_to_json
from .spine import SpineSpace, build_spine, standard_params, validate_params

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
    transitivity_cap: int = 1_000_000
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
                   bk_max_lines=self.bk_max_lines,
                   transitivity_cap=self.transitivity_cap)
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


class Workspace:
    """Built artifacts for one parameter set, cached on disk and in memory."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._space: SpineSpace | None = None
        self._graphs: dict[str, object] = {}

    @property
    def cache_dir(self) -> Path:
        d = self.cfg.out_dir / "cache"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def space(self) -> SpineSpace:
        if self._space is None:
            params = standard_params(self.cfg.q, self.cfg.n, self.cfg.k,
                                      self.cfg.m, self.cfg.w)
            self._space = build_spine(params)
        return self._space

    def graph(self, kind: str):
        if kind not in self._graphs:
            path = self.cache_dir / f"relation-{kind}-{self.cfg.space_digest()}.json"
            if path.exists():
                self._graphs[kind] = graph_from_json(json.loads(path.read_text()))
            else:
                fn = compute_pi if kind == "pi" else compute_rho
                g = fn(self.space())
                path.write_text(canonical_json(graph_to_json(g)))
                self._graphs[kind] = g
        return self._graphs[kind]


def write_report(cfg: RunConfig, name: str, payload: dict) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{name}-{cfg.digest()}.json"
    path.write_text(canonical_json(payload))
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "report": path.name}
    (cfg.out_dir / f"{name}-{cfg.digest()}.meta.json").write_text(canonical_json(meta))
    return path


def _config_payload(cfg: RunConfig) -> dict:
    return dict(cfg.space_key(), delta=cfg.delta, seed=cfg.seed)


def _try_space(cfg: RunConfig):
    params = standard_params(cfg.q, cfg.n, cfg.k, cfg.m, cfg.w)
    gates = validate_params(params)
    if not gates.basic:
        return None, gates
    return params, gates


def cmd_build(cfg: RunConfig) -> tuple[dict, int]:
    params, gates = _try_space(cfg)
    payload: dict = {"config": _config_payload(cfg),
                     "gates": {"basic": gates.basic, "pencil": gates.pencil_gate,
                               "bundle": gates.bundle_gate,
                               "problems": gates.problems, "notes": gates.notes}}
    if params is None:
        payload["error"] = "invalid parameters"
        write_report(cfg, "build", payload)
        return payload, CONFIG_ERROR
    ws = Workspace(cfg)
    space = ws.space()
    from .spine import space_json_text

    artifact = ws.cache_dir / f"space-{cfg.space_digest()}.json"
    if not artifact.exists():
        artifact.write_text(space_json_text(space))
    kinds: dict[str, int] = {}
    for ln in space.lines:
        kinds[ln.kind] = kinds.get(ln.kind, 0) + 1
    strongs: dict[str, int] = {}
    for st in space.strongs:
        strongs[st.kind] = strongs.get(st.kind, 0) + 1
    payload.update({
        "points": len(space.points),
        "lines": len(space.lines),
        "line_kinds": dict(sorted(kinds.items())),
        "strong_subspaces": dict(sorted(strongs.items())),
        "void_classes": dict(sorted(space.void_classes.items())),
        "degenerate": space.degenerate,
        "case": classify_case(space.params).tag,
        "space_artifact": artifact.name,
    })
    write_report(cfg, "build", payload)
    return payload, OK


def cmd_relations(cfg: RunConfig) -> tuple[dict, int]:
    params, gates = _try_space(cfg)
    if params is None:
        payload = {"config": _config_payload(cfg), "error": "; ".join(gates.problems)}
        write_report(cfg, "relations", payload)
        return payload, CONFIG_ERROR
    ws = Workspace(cfg)
    pi = ws.graph("pi")
    rho = ws.graph("rho")
    report = verify.check_relation_sanity(ws.space(), pi, rho)
    payload = {"config": _config_payload(cfg), "sanity": report}
    write_report(cfg, "relations", payload)
    return payload, OK if report["ok"] else CHECK_FAILED


def cmd_cliques(cfg: RunConfig) -> tuple[dict, int]:
    params, gates = _try_space(cfg)
    if params is None:
        payload = {"config": _config_payload(cfg), "error": "; ".join(gates.problems)}
        write_report(cfg, "cliques", payload)
        return payload, CONFIG_ERROR
    ws = Workspace(cfg)
    found: dict = {}
    classification = verify.check_clique_classification(
        ws.space(), ws.graph("pi"), ws.graph("rho"), cfg.bk_max_lines, collect=found)
    exchange = verify.check_exchange_criterion(
        ws.space(), ws.graph("rho"), cfg.bk_max_lines,
        fams=found["fams"], rho_cliques=found.get("rho_cliques"))
    payload = {"config": _config_payload(cfg), "classification": classification,
               "exchange": exchange}
    if len(ws.space().lines) <= cfg.bk_max_lines:
        from .cliques import family_K, family_to_json

        artifact = {
            kind: family_to_json(ws.space(), ws.graph(kind),
                                 family_K(ws.graph(kind)), found["fams"],
                                 with_exchange=kind == "rho")
            for kind in cfg.deltas()
        }
        path = cfg.out_dir / f"clique-families-{cfg.digest()}.json"
        path.write_text(canonical_json(artifact))
        payload["families_artifact"] = path.name
    write_report(cfg, "cliques", payload)
    return payload, OK if classification["ok"] and exchange["ok"] else CHECK_FAILED


def cmd_pencils(cfg: RunConfig) -> tuple[dict, int]:
    params, gates = _try_space(cfg)
    if params is None:
        payload = {"config": _config_payload(cfg), "error": "; ".join(gates.problems)}
        write_report(cfg, "pencils", payload)
        return payload, CONFIG_ERROR
    ws = Workspace(cfg)
    collected: dict = {}
    report = verify.check_pencil_recovery(ws.space(), ws.graph("pi"), ws.graph("rho"),
                                          cfg.seed, collect=collected)
    payload = {"config": _config_payload(cfg), "recovery": report}
    from .pencils import geometry_to_json

    artifact = {kind: geometry_to_json(geometry)
                for kind, (sr, geometry) in collected.items() if kind in cfg.deltas()}
    path = cfg.out_dir / f"pencil-families-{cfg.digest()}.json"
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(artifact))
    payload["families_artifact"] = path.name
    write_report(cfg, "pencils", payload)
    return payload, OK if report["ok"] else CHECK_FAILED


def cmd_reconstruct(cfg: RunConfig) -> tuple[dict, int]:
    params, gates = _try_space(cfg)
    if params is None:
        payload = {"config": _config_payload(cfg), "error": "; ".join(gates.problems)}
        write_report(cfg, "reconstruct", payload)
        return payload, CONFIG_ERROR
    payload = {"config": _config_payload(cfg),
               "gates": {"pencil": gates.pencil_gate, "bundle": gates.bundle_gate}}
    if not gates.bundle_gate:
        payload["error"] = "; ".join(gates.notes)
        write_report(cfg, "reconstruct", payload)
        return payload, CONFIG_ERROR
    ws = Workspace(cfg)
    ok = True
    for kind in cfg.deltas():
        report = verify.check_reconstruction(ws.space(), ws.graph(kind), cfg.seed)
        payload[kind] = report
        if not report["applicable"]:
            payload["error"] = report["note"]
            write_report(cfg, "reconstruct", payload)
            return payload, CONFIG_ERROR
        ok = ok and report["ok"]
    write_report(cfg, "reconstruct", payload)
    return payload, OK if ok else CHECK_FAILED


def cmd_counterexample(cfg: RunConfig) -> tuple[dict, int]:
    params, gates = _try_space(cfg)
    if params is None:
        payload = {"config": _config_payload(cfg), "error": "; ".join(gates.problems)}
        write_report(cfg, "counterexample", payload)
        return payload, CONFIG_ERROR
    ws = Workspace(cfg)
    report = verify.check_counterexample(ws.space(), ws.graph("pi"), ws.graph("rho"))
    payload = {"config": _config_payload(cfg), "counterexample": report}
    write_report(cfg, "counterexample", payload)
    if not report["applicable"]:
        return payload, CONFIG_ERROR
    return payload, OK if report["ok"] else CHECK_FAILED


def reconstruction_claim(space: SpineSpace, case: ExcludedCase) -> str:
    """The case's reconstruction status, as `verify-all` reports it.

    Outside the boundary patterns the bundle gate alone does not settle it:
    the pipeline also needs every line in a strong subspace of dimension at
    least 4, so the claim is "unknown" when some line has no such host.
    """
    if case.tag == CASE_NONE and verify._lines_without_host(space):
        return "unknown"
    return str(case.star_holds)


def cmd_verify_all(cfg: RunConfig, echo=print) -> tuple[dict, int]:
    """Run every applicable structural check and summarise one line each."""
    params, gates = _try_space(cfg)
    payload: dict = {"config": _config_payload(cfg), "checks": {}}
    if params is None:
        payload["error"] = "; ".join(gates.problems)
        write_report(cfg, "verify-all", payload)
        echo(f"configuration invalid: {payload['error']}")
        return payload, CONFIG_ERROR
    ws = Workspace(cfg)
    space = ws.space()
    pi = ws.graph("pi")
    rho = ws.graph("rho")

    def record(name: str, report: dict):
        payload["checks"][name] = report
        if not report.get("applicable", True):
            echo(f"  {name}: skipped ({report.get('note', 'not applicable')})")
        else:
            echo(f"  {name}: {'pass' if report['ok'] else 'FAIL'}")

    record("subspace_counts", verify.check_subspace_counts(max_n=cfg.n, qs=(cfg.q,)))
    record("foundations", verify.check_foundations(space))
    record("relation_sanity", verify.check_relation_sanity(space, pi, rho))
    found: dict = {}
    record("clique_classification",
           verify.check_clique_classification(space, pi, rho, cfg.bk_max_lines,
                                              collect=found))
    record("exchange_criterion",
           verify.check_exchange_criterion(space, rho, cfg.bk_max_lines,
                                           fams=found["fams"],
                                           rho_cliques=found.get("rho_cliques")))
    record("ternary_pencils", verify.check_ternary_pencils(space, pi, rho))
    record("pencil_recovery", verify.check_pencil_recovery(space, pi, rho, cfg.seed))
    case = classify_case(space.params)
    payload["case"] = {"tag": case.tag,
                       "reconstruction_claim": reconstruction_claim(space, case)}
    if gates.bundle_gate:
        for kind in cfg.deltas():
            record(f"upsilon_structure_{kind}",
                   verify.check_upsilon_structure(space, ws.graph(kind), cfg.seed))
            record(f"reconstruction_{kind}",
                   verify.check_reconstruction(space, ws.graph(kind), cfg.seed))
    else:
        echo(f"  reconstruction: skipped ({'; '.join(gates.notes)})")
    record("counterexample", verify.check_counterexample(space, pi, rho))

    failed = [name for name, rep in payload["checks"].items()
              if rep.get("applicable", True) and not rep["ok"]]
    payload["failed"] = failed
    payload["ok"] = not failed
    write_report(cfg, "verify-all", payload)
    echo(f"verify-all: {'all checks pass' if not failed else 'FAILED: ' + ', '.join(failed)}")
    return payload, OK if not failed else CHECK_FAILED
