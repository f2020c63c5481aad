"""The exit-code contract over the command-line surface, called in process.

Every call of `cli.main` returns 0 (all checks pass), 1 (a check failed) or
2 (a bad config or a gate), prints no traceback, and writes the command's
report whenever the config parses.  Parameters run from -1 to 8 each; a
valid config runs only when its build is small (see `_runnable`), so the
examples stay cheap.
"""

import contextlib
import functools
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from spinegeo import cli
from spinegeo.gf import q_binomial
from spinegeo.harness import COMMANDS, CONFIG_ERROR
from spinegeo.spine import build_spine, standard_params, validate_params

VALUES = range(-1, 9)
PARAMS = ("q", "n", "k", "m", "w")
# config files that do not parse, beside a good one ("object") and none (flags only)
BAD_FILES = ["missing", "not json", "list", "unknown key", "wrong type"]
BAD_DELTAS = ["all", ""]


def _valid(params) -> bool:
    try:
        return validate_params(standard_params(*params)).basic
    except ValueError:
        return False


@functools.cache
def _runnable(params) -> bool:
    """A valid config with at most 400 subspaces of GF(q)^n (verify-all
    enumerates all of them) and at most 500 lines."""
    q, n = params[:2]
    return (_valid(params) and sum(q_binomial(n, j, q) for j in range(n + 1)) <= 400
            and len(build_spine(standard_params(*params)).lines) <= 500)


def _small_valid_params() -> list[tuple[int, ...]]:
    # 400 subspaces leave a prime q and n <= 5
    return [p for p in itertools.product(VALUES, repeat=5)
            if p[0] in (2, 3, 5, 7) and p[1] <= 5 and _runnable(p)]


SMALL_VALID = st.deferred(lambda: st.sampled_from(_small_valid_params()))
ANY_VALUES = st.tuples(*[st.sampled_from(VALUES)] * 5)


def _config_file(folder: Path, kind: str | None, params: dict, delta: str | None):
    if kind is None:
        return None
    path = folder / "cfg.json"
    doc = dict(params, **({} if delta is None else {"delta": delta}))
    text = {
        "object": json.dumps(doc),
        "missing": None,
        "not json": json.dumps(doc)[:-1],
        "list": json.dumps(list(params.values())),
        "unknown key": json.dumps(dict(doc, bk_max_lines=10)),
        "wrong type": json.dumps(dict(doc, q=str(params["q"]))),
    }[kind]
    if text is not None:
        path.write_text(text)
    return path


@settings(max_examples=500, deadline=None)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    # a free draw is valid about once in a hundred, so draw the small valid
    # configs on their own as well
    values=st.one_of(SMALL_VALID, ANY_VALUES),
    delta=st.one_of(st.sampled_from([None, "pi", "rho", "both"]), st.sampled_from(BAD_DELTAS)),
    config=st.one_of(st.sampled_from([None, "object"]), st.sampled_from(BAD_FILES)),
)
def test_every_call_exits_0_1_or_2_without_a_traceback(command, values, delta, config):
    assume(not _valid(values) or _runnable(values))
    params = dict(zip(PARAMS, values))
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        out = folder / "out"
        path = _config_file(folder, config, params, delta)
        argv = [command, "--out", str(out)]
        if path is not None:
            argv += ["--config", str(path)]
        else:
            argv += [f"--{key}={value}" for key, value in params.items()]
            if delta is not None:
                argv.append(f"--delta={delta}")
        # argparse rejects a bad --delta flag; one in a config file reaches the command
        parses = config == "object" or (config is None and delta not in BAD_DELTAS)

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: bad usage exits 2
                code = exc.code
        printed = stdout.getvalue() + stderr.getvalue()
        event(f"{command} exit {code}")
        assert code in (0, 1, 2), (code, printed)
        assert "Traceback" not in printed, printed
        reports = [p for p in out.glob(f"{command}-*.json") if not p.name.endswith(".meta.json")]
        assert len(reports) == parses, (reports, printed)
        if not parses or not _valid(values):
            assert code == CONFIG_ERROR, printed


@pytest.mark.parametrize("under", [False, True])
def test_an_out_path_at_or_under_a_file_is_a_config_error(under):
    # an --out that names a regular file, or a path below one, exits 2 with
    # one line on stderr (no traceback) before any stage runs or any report
    # is written
    with tempfile.TemporaryDirectory() as tmp:
        blocker = Path(tmp) / "file"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["build", "--q=2", "--n=4", "--k=2", "--m=1", "--w=2",
                             "--out", str(out)])
        assert code == CONFIG_ERROR
        assert stdout.getvalue() == ""
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: "), lines
        assert sorted(p.name for p in Path(tmp).rglob("*")) == ["file"]
        assert blocker.read_text() == ""
