"""In-process tracing of the spinegeo modules, from outside the package.

`Tracer.install()` replaces each public function listed in `TARGETS` by a
timing wrapper, in the module that defines it and in every spinegeo module
that imported the name, so calls through either path are counted.  Methods
are wrapped on their class.  Every call records a span (name, start, end,
parent span); spans stay in memory and are written once, by `write_spans`,
after the traced commands have run.  `uninstall()` puts the originals back.

A function's self time is its span minus the wrapped spans it contains.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# module -> public functions timed in it (methods as Class.method)
TARGETS: dict[str, list[str]] = {
    "gf": ["enumerate_subspaces", "enumerate_between"],
    "spine": ["build_spine", "SpineSpace.planes", "SpineSpace.pencils",
              "SpineSpace.semibundles", "space_json_text"],
    "relations": ["compute_pi", "compute_rho", "strip", "graph_to_json",
                  "graph_from_json", "LineRelationGraph.check_invariants"],
    "cliques": ["family_K", "bron_kerbosch", "podmianka", "geometric_families",
                "classify_clique", "delta_n"],
    "pencils": ["derive_line_geometry", "family_P", "p_pi", "p_rho",
                "detect_parallel", "clique_dimension"],
    "bundles": ["reconstruct", "upsilon_empty", "verify_equivalence"],
    "excluded": ["classify_case", "build_homology_map", "verify_counterexample"],
    "verify": ["check_subspace_counts", "check_foundations", "check_relation_sanity",
               "check_clique_classification", "check_exchange_criterion",
               "check_ternary_pencils", "check_pencil_recovery",
               "check_upsilon_structure", "check_reconstruction",
               "check_counterexample"],
    "harness": ["cmd_build", "cmd_relations", "cmd_reconstruct", "cmd_verify_all",
                "write_report", "Workspace.space", "Workspace.graph"],
}

def metric_names() -> list[str]:
    """Every per-module metric name, in the order `Tracer.metrics` reports them."""
    names = []
    for module, functions in TARGETS.items():
        for fn in functions:
            key = f"{module}.{fn}"
            names += [f"{key}.calls", f"{key}.self_s"]
            if fn.startswith(("check_", "cmd_")):  # checks and commands: total time too
                names.append(f"{key}.s")
    return names


class Tracer:
    """Spans and per-function sums for the wrapped spinegeo functions."""

    def __init__(self):
        # one entry per span, in call order: name index, start, end, parent span
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._open: list[list] = []  # [span index, seconds covered by child spans]
        self._restore: list[tuple[object, object, object]] = []

    def _wrap(self, key: str, fn):
        name_index = len(self.names)
        self.names.append(key)
        span_name, span_start, span_end, span_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent)
        open_, calls, total, self_time = self._open, self.calls, self.total, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_index)
            span_parent.append(open_[-1][0] if open_ else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [index, 0.0]
            open_.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                span_start[index] = start
                span_end[index] = end
                took = end - start
                calls[key] += 1
                total[key] += took
                self_time[key] += took - frame[1]
                if open_:
                    open_[-1][1] += took
        return traced

    def install(self) -> None:
        importlib.import_module("spinegeo.cli")
        for module in TARGETS:
            importlib.import_module(f"spinegeo.{module}")
        loaded = [m for name, m in sys.modules.items()
                  if name == "spinegeo" or name.startswith("spinegeo.")]
        for module, functions in TARGETS.items():
            home = sys.modules[f"spinegeo.{module}"]
            for fn in functions:
                key = f"{module}.{fn}"
                self.calls[key] = 0
                self.total[key] = 0.0
                self.self_time[key] = 0.0
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(key, original))
                    continue
                original = getattr(home, fn)
                wrapped = self._wrap(key, original)
                for mod in loaded:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapped)
                        elif isinstance(value, dict):  # e.g. the CLI's command table
                            for item, entry in list(value.items()):
                                if entry is original:
                                    self._patch(value, item, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, dict]:
        out = {}
        for name in metric_names():
            key, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = {"value": self.calls[key], "unit": "count"}
            elif kind == "self_s":
                out[name] = {"value": self.self_time[key], "unit": "s"}
            else:
                out[name] = {"value": self.total[key], "unit": "s"}
        return out

    def write_spans(self, path: Path) -> None:
        """Write one line per span: name, start and end (s), parent span index (-1: none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w") as fh:
            for name, start, end, parent in zip(self.span_name, self.span_start,
                                                self.span_end, self.span_parent):
                fh.write(f"{json.dumps(names[name])} {start:.7f} {end:.7f} {parent}\n")
