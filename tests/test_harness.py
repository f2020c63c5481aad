import json
from pathlib import Path

import pytest

from spinegeo import cli, harness
from spinegeo.excluded import CASE_NONE, classify_case
from spinegeo.pencils import family_P
from spinegeo.spine import LINE_AFFINE
from spinegeo.harness import (
    CHECK_FAILED,
    CONFIG_ERROR,
    OK,
    RunConfig,
    Workspace,
    cmd_build,
    cmd_counterexample,
    cmd_reconstruct,
    cmd_relations,
    config_from_sources,
    reconstruction_claim,
)

SMALL = dict(q=2, n=5, k=2, m=1, w=3)


def cfg(tmp_path, **kw):
    args = dict(SMALL, out_dir=tmp_path, **kw)
    return RunConfig(**args)


def test_build_report_and_exit_code(tmp_path):
    payload, code = cmd_build(cfg(tmp_path))
    assert code == OK
    assert payload["points"] == 84 and payload["lines"] == 406
    metas = list(tmp_path.glob("build-*.meta.json"))
    reports = [p for p in tmp_path.glob("build-*.json") if p not in metas]
    assert len(reports) == 1 and len(metas) == 1
    assert json.loads(reports[0].read_text())["points"] == 84


def test_invalid_config_exits_2(tmp_path):
    payload, code = cmd_build(cfg(tmp_path, m=3))  # m > min(k, w)
    assert code == CONFIG_ERROR
    assert payload["gates"]["problems"]


def test_gate_failure_names_the_inequalities(tmp_path):
    payload, code = cmd_reconstruct(cfg(tmp_path))
    assert code == CONFIG_ERROR
    assert "4 <= n-k" in payload["error"] and "k != m+1" in payload["error"]


def test_relation_cache_reuse(tmp_path):
    c = cfg(tmp_path)
    ws1 = Workspace(c)
    g1 = ws1.graph("pi")
    cache_files = sorted(p.name for p in (tmp_path / "cache").glob("relation-pi-*.json"))
    assert len(cache_files) == 1
    before = (tmp_path / "cache" / cache_files[0]).read_bytes()
    ws2 = Workspace(c)
    g2 = ws2.graph("pi")
    assert g2.rows == g1.rows
    after = (tmp_path / "cache" / cache_files[0]).read_bytes()
    assert before == after


def test_report_determinism(tmp_path):
    c = cfg(tmp_path)
    cmd_relations(c)
    path = next(tmp_path.glob("relations-*.json"))
    first = path.read_bytes()
    cmd_relations(c)
    assert path.read_bytes() == first


def test_reconstruct_exits_2_when_lines_lack_a_big_host(tmp_path):
    # the bundle gate holds on (2,6,2,1,3), but its omega lines lie only in
    # planes, so no bundle can contain them
    c = RunConfig(q=2, n=6, k=2, m=1, w=3, out_dir=tmp_path)
    payload, code = cmd_reconstruct(c)
    assert code == CONFIG_ERROR
    assert "392 omega" in payload["error"]
    assert payload["pi"]["uncovered_lines"] == {"omega": 392}


def test_reconstruct_rho_exits_2_over_gf2_when_every_line_is_affine(tmp_path):
    # every line of (2,6,2,0,4) is affine, so every plane is affine, and over
    # GF(2) rho sees no pencil there: the check names that cause up front
    c = RunConfig(q=2, n=6, k=2, m=0, w=4, delta="rho", seed=11, out_dir=tmp_path)
    payload, code = cmd_reconstruct(c)
    assert code == CONFIG_ERROR
    assert payload["rho"]["applicable"] is False
    assert payload["rho"]["hypothesis"] == "q >= 3"
    assert "p_rho sees no pencil" in payload["error"]
    ws = Workspace(c)
    assert {ln.kind for ln in ws.space().lines} == {LINE_AFFINE}
    assert family_P(ws.graph("rho")).masks == []


def test_reconstruction_claim_needs_a_big_host_for_every_line(cfg1_space, roomy_space):
    # both pass the bundle gate; cfg1's 392 omega lines have no host of
    # dimension >= 4, so verify-all must not claim reconstruction there
    cases = {name: classify_case(space.params)
             for name, space in (("cfg1", cfg1_space), ("roomy", roomy_space))}
    assert all((c.tag, c.star_holds) == (CASE_NONE, True) for c in cases.values())
    assert reconstruction_claim(cfg1_space, cases["cfg1"]) == "unknown"
    assert reconstruction_claim(roomy_space, cases["roomy"]) == "True"


def test_counterexample_requires_the_neighbourhood_case(tmp_path):
    payload, code = cmd_counterexample(cfg(tmp_path))
    assert code == CONFIG_ERROR


def test_counterexample_command_on_gf3(tmp_path):
    c = RunConfig(q=3, n=5, k=2, m=1, w=2, out_dir=tmp_path)
    payload, code = cmd_counterexample(c)
    assert code == OK
    assert payload["counterexample"]["ok"]


def test_config_file_with_flag_override(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(dict(SMALL, seed=5)))
    c = config_from_sources({"seed": 9, "out_dir": tmp_path}, f)
    assert c.seed == 9 and c.q == 2 and c.out_dir == tmp_path


def test_cli_build_roundtrip(tmp_path, capsys):
    code = cli.main([
        "build", "--q", "2", "--n", "5", "--k", "2", "--m", "1", "--w", "3",
        "--out", str(tmp_path),
    ])
    assert code == OK
    out = capsys.readouterr().out
    assert "points: 84" in out


def test_cli_rejects_bad_delta(tmp_path):
    code = cli.main([
        "relations", "--q", "2", "--n", "5", "--k", "2", "--m", "1", "--w", "3",
        "--delta", "both", "--out", str(tmp_path),
    ])
    assert code == OK


def test_config_file_with_the_removed_transitivity_cap_exits_2(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(dict(SMALL, transitivity_cap=10)))
    code = cli.main(["build", "--config", str(f), "--out", str(tmp_path)])
    assert code == CONFIG_ERROR
    assert "transitivity_cap" in capsys.readouterr().err
    assert not list(tmp_path.glob("build-*.json"))


def test_cli_exits_2_on_a_missing_config_file(tmp_path, capsys):
    code = cli.main(["build", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)])
    assert code == CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.json" in err


@pytest.mark.parametrize("command, flag, message", [
    ("build", "--q=4", "q = 4 is not prime"),
    ("build", "--w=9", "w = 9 is not in 0..n = 5"),
    ("verify-all", "--w=9", "w = 9 is not in 0..n = 5"),
])
def test_cli_exits_2_on_parameters_outside_the_field_or_space(tmp_path, capsys,
                                                              command, flag, message):
    argv = [command, "--q=2", "--n=5", "--k=2", "--m=1", "--w=3", flag, "--out", str(tmp_path)]
    assert cli.main(argv) == CONFIG_ERROR
    assert capsys.readouterr().out == f"error: {message}\n"
    report = next(p for p in tmp_path.glob(f"{command}-*.json")
                  if not p.name.endswith(".meta.json"))
    assert json.loads(report.read_text())["error"] == message


def _count_calls(monkeypatch, names):
    """Count calls of the named spinegeo functions, through every module that imports them."""
    import sys

    import spinegeo.cliques
    import spinegeo.pencils
    import spinegeo.relations

    counts = dict.fromkeys(names, 0)
    for name in names:
        home = next(m for m in (spinegeo.cliques, spinegeo.pencils, spinegeo.relations)
                    if hasattr(m, name))
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("spinegeo") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_verify_all_computes_each_stage_once_per_relation(tmp_path, monkeypatch):
    # cfg1 passes the bundle gate, so pencil recovery and the gluing check
    # both need the stripped geometry of each relation
    counts = _count_calls(monkeypatch, ["strip", "derive_line_geometry",
                                        "geometric_families", "bron_kerbosch"])
    c = RunConfig(q=2, n=6, k=2, m=1, w=3, seed=11, out_dir=tmp_path)
    payload, code = harness.cmd_verify_all(c, echo=lambda *_: None)
    assert code == OK
    assert {"pencil_recovery", "upsilon_structure_pi", "upsilon_structure_rho"} <= set(
        payload["checks"])
    assert counts == {"strip": 2, "derive_line_geometry": 2,
                      "geometric_families": 1, "bron_kerbosch": 2}


def test_build_writes_no_space_cache(tmp_path):
    payload, code = cmd_build(cfg(tmp_path))
    assert code == OK
    assert "space_artifact" not in payload
    assert not (tmp_path / "cache").exists()
