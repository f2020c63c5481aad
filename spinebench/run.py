"""Benchmark of the `spinegeo` command line, end to end and module by module.

    python3 spinebench/run.py --workload verify-gf3-warm --seed 11 --seconds 30 --trace 0

Run from the root of a spinegeo checkout; the program is taken from `src/`
there.  Each workload runs whole rounds: in a fresh out dir, its set-up
commands, then its timed commands, one child process per command, one at a
time.  Rounds repeat until `--seconds` have passed (at least the workload's
minimum), and the run sets up at least three times, so `setup_s` is a
median.  Every command is an operation; it fails if it exits non-zero or if
an output check in `checks.py` rejects what it wrote.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
round, then the same round in this process through `spinegeo.cli.main` with
the wrappers of `tracer.py` installed, and prints the per-module metrics plus
the tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--seed` is the stripping
seed handed to every command.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "spinebench-runs"
RUN_CLI = "import sys; from spinegeo.cli import main; sys.exit(main())"
MIN_SETUPS = 3

AFFINE = (2, 6, 2, 0, 4)    # 5 760 lines, 256 points, every line affine
CEX = (3, 5, 2, 1, 2)       # neighbourhood case: the counterexample applies
TWIN = (3, 4, 2, 1, 3)      # cfg1 (2,6,2,1,3)'s shape over GF(3), two dimensions down


@dataclass(frozen=True)
class Command:
    name: str
    cfg: tuple
    extra: tuple = ()

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        flags = [f"--{key}={value}" for key, value in zip("qnkmw", self.cfg)]
        return [self.name, *flags, f"--seed={seed}", f"--out={out_dir}", *self.extra]


@dataclass(frozen=True)
class Workload:
    setup: tuple[Command, ...]
    timed: tuple[Command, ...]
    min_rounds: int


WORKLOADS = {
    # full reconstruction, cold cache; no clique oracle, no repeated checks
    "reconstruct-affine-pi": Workload(
        setup=(Command("build", AFFINE),),
        timed=(Command("reconstruct", AFFINE, ("--delta=pi",)),), min_rounds=1),
    # the full check suite (stages repeat across checks) on GF(3), the
    # counterexample, and the only workload that reads the cache
    "verify-gf3-warm": Workload(
        setup=(Command("build", TWIN), Command("relations", TWIN),
               Command("build", CEX), Command("relations", CEX)),
        timed=(Command("verify-all", TWIN), Command("verify-all", CEX)), min_rounds=2),
}


@dataclass
class Round:
    out_dir: Path
    setup_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mib: float = 0.0
    line_kinds: dict = field(default_factory=dict)  # cfg -> build report line kinds
    lines: dict = field(default_factory=dict)       # cfg -> build report line count


class Bench:
    """Runs commands, checks what they wrote and counts the operations."""

    def __init__(self, seed: int, log_dir: Path):
        self.seed = seed
        self.log_dir = log_dir
        self.attempted = 0
        self.failed = 0

    def child(self, cmd: Command, out_dir: Path) -> tuple[float, int, float]:
        """Run one command as a child process: seconds, exit code, peak RSS (MiB)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log_dir.mkdir(parents=True, exist_ok=True)
        log = self.log_dir / f"{out_dir.name}-{cmd.name}-{'-'.join(map(str, cmd.cfg))}.txt"
        with log.open("w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", RUN_CLI, *cmd.argv(self.seed, out_dir)],
                                    cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)  # wait4 also gives the peak RSS
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            took = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return took, proc.returncode, usage.ru_maxrss / 1024

    def in_process(self, cmd: Command, out_dir: Path) -> tuple[float, int]:
        from spinegeo import cli

        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(cmd.argv(self.seed, out_dir))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # a child process would exit 1 with this traceback
            traceback.print_exc()
            code = 1
        return time.perf_counter() - start, code

    def record(self, cmd: Command, code: int, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}", *problems]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {cmd.name} {cmd.cfg}: {problem}", file=sys.stderr)

    def check(self, cmd: Command, rnd: Round) -> list[str]:
        """Problems in what `cmd` wrote to the round's out dir."""
        try:
            return self._check(cmd, rnd)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"malformed output: {exc!r}"]

    def _check(self, cmd: Command, rnd: Round) -> list[str]:
        report = find_report(rnd.out_dir, cmd)
        if report is None:
            return [f"no {cmd.name} report for {cmd.cfg}"]
        out, cfg, seed = rnd.out_dir, cmd.cfg, self.seed
        lines = rnd.lines.get(cfg)
        if cmd.name == "build":
            rnd.line_kinds[cfg] = report.get("line_kinds", {})
            rnd.lines[cfg] = report.get("lines")
            return checks.check_build(report, cfg, seed)
        if cmd.name == "relations":
            sanity = report.get("sanity", {})
            problems = [] if sanity.get("ok") is True else ["relations: sanity not ok"]
            return problems + checks.check_caches(out, cfg, lines=lines,
                                                  edge_counts=checks.sanity_edges(sanity))
        if cmd.name == "verify-all":
            sanity = report.get("checks", {}).get("relation_sanity", {})
            return (checks.check_verify_all(report, cfg, seed, rnd.line_kinds.get(cfg, {}))
                    + checks.check_caches(out, cfg, lines=lines,
                                          edge_counts=checks.sanity_edges(sanity)))
        if cmd.name == "reconstruct":
            kind = report.get("config", {}).get("delta")
            return (checks.check_reconstruct(report, cfg, seed, kind)
                    + checks.check_caches(out, cfg, kinds=(kind,), lines=lines))
        return [f"no output check for {cmd.name}"]

    def run_round(self, wl: Workload, out_dir: Path, timed: bool = True,
                  traced: bool = False, reference: Round | None = None) -> Round:
        """Set up, then (if `timed`) run the timed commands, in a fresh out dir.

        With a `reference` round, the last command's check also requires
        this pass to have written the reference's bytes.
        """
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        rnd = Round(out_dir)
        commands = wl.setup + wl.timed if timed else wl.setup
        for index, cmd in enumerate(commands):
            if traced:
                took, code = self.in_process(cmd, out_dir)
                rss = 0.0
            else:
                took, code, rss = self.child(cmd, out_dir)
            problems = self.check(cmd, rnd)
            if reference is not None and index == len(commands) - 1:
                problems += checks.compare_passes(reference.out_dir, out_dir, whole=timed)
            self.record(cmd, code, problems)
            if index < len(wl.setup):
                rnd.setup_s += took
            else:
                rnd.wall_s += took
                rnd.peak_rss_mib = max(rnd.peak_rss_mib, rss)
        return rnd


def find_report(out_dir: Path, cmd: Command) -> dict | None:
    for path in sorted(out_dir.glob(f"{cmd.name}-*.json")):
        if path.name.endswith(".meta.json"):
            continue
        report = json.loads(path.read_text())
        if tuple(report.get("config", {}).get(key) for key in "qnkmw") == cmd.cfg:
            return report
    return None


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(bench: Bench, wl: Workload, out: Path, seconds: float) -> dict:
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < wl.min_rounds or time.perf_counter() - start < seconds:
        reference = rounds[0] if rounds else None
        rounds.append(bench.run_round(wl, out / f"round-{len(rounds)}", reference=reference))
    setups = [r.setup_s for r in rounds]
    for i in range(MIN_SETUPS - len(rounds)):
        extra = bench.run_round(wl, out / f"setup-{i}", timed=False, reference=rounds[0])
        setups.append(extra.setup_s)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(r.wall_s for r in rounds), "s"),
        "peak_rss_mib": metric(statistics.median(r.peak_rss_mib for r in rounds), "MiB"),
        "out_bytes": metric(statistics.median(dir_bytes(r.out_dir) for r in rounds), "bytes"),
    }


def run_traced(bench: Bench, wl: Workload, out: Path) -> dict:
    plain = bench.run_round(wl, out / "round-0")
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.run_round(wl, out / "traced", traced=True, reference=plain)
    finally:
        tracer.uninstall()
    tracer.write_spans(out / "spans.txt")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = metric(traced.wall_s - plain.wall_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11, help="stripping seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="keep starting rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinegeo" / "cli.py").is_file():
        print(f"no spinegeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinegeo

    if Path(spinegeo.__file__).resolve().parent != SRC / "spinegeo":
        print(f"imported spinegeo from {spinegeo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    bench = Bench(args.seed, out / "logs")
    if args.trace:
        metrics = run_traced(bench, wl, out)
    else:
        metrics = run_untraced(bench, wl, out, args.seconds)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
