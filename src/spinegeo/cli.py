"""Command-line front end: build, relate, verify, reconstruct, report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness

COMMANDS = {
    "build": harness.cmd_build,
    "relations": harness.cmd_relations,
    "cliques": harness.cmd_cliques,
    "pencils": harness.cmd_pencils,
    "reconstruct": harness.cmd_reconstruct,
    "counterexample": harness.cmd_counterexample,
    "verify-all": harness.cmd_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinegeo",
        description="Finite spine spaces: line relations, cliques, pencils, "
                    "and point reconstruction, with structural verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0] if fn.__doc__ else None)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with defaults; explicit flags win")
        p.add_argument("--q", type=int, default=None, help="field size (prime)")
        p.add_argument("--n", type=int, default=None, help="ambient dimension")
        p.add_argument("--k", type=int, default=None, help="point dimension")
        p.add_argument("--m", type=int, default=None, help="required meet with W")
        p.add_argument("--w", type=int, default=None, help="dimension of W")
        p.add_argument("--delta", choices=["pi", "rho", "both"], default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the stripping permutation")
        p.add_argument("--bk-cap", type=int, default=None, dest="bk_max_lines",
                       help="largest line count fed to the clique oracle")
        p.add_argument("--out", type=Path, default=None, dest="out_dir",
                       help="report directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {
        key: getattr(args, key)
        for key in ("q", "n", "k", "m", "w", "delta", "seed",
                    "bk_max_lines", "out_dir")
    }
    try:
        cfg = harness.config_from_sources(flags, args.config)
    except (OSError, TypeError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return harness.CONFIG_ERROR
    payload, code = COMMANDS[args.command](cfg)
    if args.command != "verify-all" or "error" in payload:
        interesting = {k: v for k, v in payload.items() if k not in ("config",)}
        for key, value in interesting.items():
            if isinstance(value, dict) and not value.get("applicable", True):
                print(f"{key}: skipped")
            elif isinstance(value, dict) and "ok" in value:
                print(f"{key}: {'pass' if value['ok'] else 'FAIL'}")
            elif not isinstance(value, (dict, list)):
                print(f"{key}: {value}")
    return code


if __name__ == "__main__":
    sys.exit(main())
