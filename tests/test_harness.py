import hashlib
import json

import pytest

from spinegeo import cli, harness, verify
from spinegeo.cliques import bron_kerbosch, family_K
from spinegeo.excluded import CASE_NONE, classify_case
from spinegeo.pencils import family_P
from spinegeo.relations import (LineRelationGraph, compute_pi, compute_rho, graph_from_json,
                                graph_to_json, strip)
from spinegeo.spine import (LINE_AFFINE, LINE_ALPHA, LINE_OMEGA, build_spine, standard_params,
                            validate_params)
from spinegeo.harness import (
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

from conftest import CEX, CFG1, SEED, count_calls

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


def test_a_second_command_rewrites_byte_identical_relation_files(tmp_path):
    c = cfg(tmp_path)
    g1 = Workspace(c).graph("pi").graph
    (path,) = (tmp_path / "cache").glob("relation-pi-*.json")
    inode, before = path.stat().st_ino, path.read_bytes()
    g2 = Workspace(c).graph("pi").graph
    assert g2.rows == g1.rows
    assert path.stat().st_ino != inode  # a new file, moved into place
    assert path.read_bytes() == before


@pytest.mark.parametrize("kind", ["pi", "rho"])
def test_relation_file_is_compact_canonical_json_under_the_benchmark_name(tmp_path, kind):
    c = cfg(tmp_path)
    ws = Workspace(c)
    ws.graph(kind)
    # the file holds the relation in geometric ids
    g = (compute_pi if kind == "pi" else compute_rho)(ws.space())
    (path,) = (tmp_path / "cache").glob(f"relation-{kind}-*.json")
    text = path.read_text()
    assert text == json.dumps(graph_to_json(g), sort_keys=True, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1
    assert graph_from_json(json.loads(text)).rows == g.rows
    # the benchmark names the file by the digest of the space key at indent=1
    key = json.dumps(c.space_key(), sort_keys=True, indent=1) + "\n"
    assert path.name == f"relation-{kind}-{hashlib.sha256(key.encode()).hexdigest()[:16]}.json"


def test_no_command_reads_a_relation_file(tmp_path, monkeypatch, capsys):
    counts = count_calls(monkeypatch, ["graph_from_json", "compute_pi", "compute_rho"])
    c = cfg(tmp_path)
    assert cmd_relations(c)[1] == OK
    assert len(list((tmp_path / "cache").glob("relation-*.json"))) == 2
    harness.cmd_verify_all(c)
    assert capsys.readouterr().out.endswith("verify-all: all checks pass\n")
    assert counts == {"graph_from_json": 0, "compute_pi": 2, "compute_rho": 2}


def test_pencils_with_delta_pi_computes_no_rho(tmp_path, monkeypatch):
    counts = count_calls(monkeypatch, ["compute_rho"])
    payload, code = harness.cmd_pencils(cfg(tmp_path, delta="pi"))
    assert code == OK
    assert counts["compute_rho"] == 0
    assert "pi" in payload["recovery"] and "rho" not in payload["recovery"]
    assert not list((tmp_path / "cache").glob("relation-rho-*.json"))


def test_report_determinism(tmp_path):
    c = cfg(tmp_path)
    cmd_relations(c)
    path = next(p for p in tmp_path.glob("relations-*.json") if not p.name.endswith(".meta.json"))
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
    rho = ws.graph("rho").graph
    assert family_P(rho, family_K(rho)).members == []


def test_reconstruction_claim_needs_a_big_host_for_every_line(cfg1_space, roomy_space):
    # both pass the bundle gate; cfg1's 392 omega lines have no host of
    # dimension >= 4, so verify-all must not claim reconstruction there
    cases = {name: classify_case(space.params)
             for name, space in (("cfg1", cfg1_space), ("roomy", roomy_space))}
    assert all((c.tag, c.star_holds) == (CASE_NONE, True) for c in cases.values())
    assert reconstruction_claim(cfg1_space, cases["cfg1"]) == "unknown"
    assert reconstruction_claim(roomy_space, cases["roomy"]) == "True"


def _host_bound(kind: str, n: int, k: int, m: int, w: int) -> int:
    """The largest dimension of a strong subspace holding a line of `kind`."""
    return {LINE_AFFINE: max(n - k, k), LINE_ALPHA: max(n - k, k - m),
            LINE_OMEGA: max(w - m, k)}[kind]


def _small_configs():
    """Every valid config with q = 2 and n <= 5, or with q = 3 and n = 4."""
    out = []
    for q, n in ((2, 4), (2, 5), (3, 4)):
        for k in range(2, n - 1):
            for w in range(n + 1):
                for m in range(min(k, w) + 1):
                    if validate_params(standard_params(q, n, k, m, w)).basic:
                        out.append((q, n, k, m, w))
    return out


def test_lines_without_host_follow_the_closed_form(cfg1_space, roomy_space, cfg3_space):
    # a line of kind K lies in a strong subspace of dimension >= 4 iff the
    # bound for K is >= 4, so the lines without one are all lines of the
    # kinds whose bound is below 4
    spaces = [build_spine(standard_params(*c)) for c in _small_configs()]
    assert len(spaces) == 42
    for space in spaces + [cfg1_space, roomy_space, cfg3_space]:
        params = space.params
        dims = (params.space.n, params.k, params.m, params.w_dim)
        expected = {}
        for ln in space.lines:
            if _host_bound(ln.kind, *dims) < 4:
                expected[ln.kind] = expected.get(ln.kind, 0) + 1
        assert verify.lines_without_host(space) == dict(sorted(expected.items())), dims


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
    # bk_max_lines went the same way: the oracle cap is the constant BK_MAX_LINES
    for removed in ("transitivity_cap", "bk_max_lines"):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(dict(SMALL, **{removed: 10})))
        code = cli.main(["build", "--config", str(f), "--out", str(tmp_path)])
        assert code == CONFIG_ERROR
        assert removed in capsys.readouterr().err
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


def test_verify_all_computes_each_stage_once_per_relation(tmp_path, monkeypatch, capsys):
    # cfg1 passes the bundle gate, so pencil recovery and the gluing check
    # both need the stripped geometry of each relation
    counts = count_calls(monkeypatch, ["strip", "derive_line_geometry",
                                       "geometric_families", "bron_kerbosch"])
    c = RunConfig(q=2, n=6, k=2, m=1, w=3, seed=11, out_dir=tmp_path)
    payload, code = harness.cmd_verify_all(c)
    assert code == OK
    assert capsys.readouterr().out.endswith("verify-all: all checks pass\n")
    assert {"pencil_recovery", "upsilon_structure_pi", "upsilon_structure_rho"} <= set(
        payload["checks"])
    assert counts == {"strip": 2, "derive_line_geometry": 2,
                      "geometric_families": 1, "bron_kerbosch": 2}


def test_verify_all_keeps_one_stripped_graph_per_relation(tmp_path, monkeypatch, capsys,
                                                         cex_space):
    # the workspace holds each relation once, in stripped ids; the geometric
    # rows live only to be written to the relation file
    kept = []

    class Kept(Workspace):
        def __init__(self, cfg):
            super().__init__(cfg)
            kept.append(self)

    monkeypatch.setattr(harness, "Workspace", Kept)
    assert harness.cmd_verify_all(RunConfig(*CEX, seed=SEED, out_dir=tmp_path))[1] == OK
    assert capsys.readouterr().out.endswith("verify-all: all checks pass\n")
    (ws,) = kept
    assert not [key for key, stage in ws._stages.items()
                if isinstance(stage, LineRelationGraph)]
    for kind, compute in (("pi", compute_pi), ("rho", compute_rho)):
        want = strip(compute(cex_space), SEED)
        assert ws._stages[("graph", kind)].graph.rows == want.graph.rows
        assert ws._stages[("graph", kind)].perm == want.perm


@pytest.mark.parametrize("name", ["cfg1", "cex"])
def test_the_oracle_cliques_map_back_to_the_geometric_ids(request, name):
    # Bron-Kerbosch runs on the stripped graph; mapped back through the strip,
    # its cliques are those of the relation in geometric ids
    ws = request.getfixturevalue(f"{name}_ws")
    for kind in ("pi", "rho"):
        assert ws.cliques(kind) == bron_kerbosch(request.getfixturevalue(f"{name}_{kind}"))


def test_the_rho_exclusion_is_computed_once_per_workspace(cfg1_ws, tmp_path, monkeypatch):
    # over GF(2) the rho half sets the proper pencils of affine planes aside
    # and tests each for spanning, once per command however often it is read
    ws = Workspace(RunConfig(*CFG1, seed=SEED, out_dir=tmp_path))
    ws._stages = {key: stage for key, stage in cfg1_ws._stages.items()
                  if key[0] != "rho_outside"}
    counts = count_calls(monkeypatch, ["delta_n"])
    first = verify.check_pencil_recovery(ws)
    assert verify.check_pencil_recovery(ws) == first
    assert first["rho"]["outside_hypothesis"]["count"] == counts["delta_n"] == 196


@pytest.mark.parametrize("params, sha256", [
    ((2, 5, 2, 1, 3), "fd65fa0b87d50802a021b62a135ef9d4a82c47ab1d5cce108e191bace08f2792"),
    ((3, 4, 2, 1, 3), "c684fe1fea401dc96ae842ba86951fe851a289a84a3e7a2b29b857516d26dfa5"),
])
def test_clique_families_artifact_bytes(tmp_path, params, sha256):
    # every row (lines, kind, witness, and rho's exchange flag), byte for byte
    flags = [f"--{key}={value}" for key, value in zip("qnkmw", params)]
    assert cli.main(["cliques", *flags, "--out", str(tmp_path)]) == OK
    (artifact,) = tmp_path.glob("clique-families-*.json")
    assert hashlib.sha256(artifact.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", [
    # the oracle checks and criterion 6
    (["verify-all", "--q=2", "--n=6", "--k=2", "--m=1", "--w=3"],
     {"verify-all": "95dd76acac845f258dc5a26b15c93f119274bb7dbcbf3e7fa4c0cae2d7777b6d"}),
    # the GF(3) exchange check and the counterexample
    (["verify-all", "--q=3", "--n=5", "--k=2", "--m=1", "--w=2"],
     {"verify-all": "bcffe8e85d833dc32e45c7492265703ed610ad166ea0d34357e281514df45319"}),
    (["pencils", "--q=2", "--n=5", "--k=2", "--m=1", "--w=3"],
     {"pencils": "72156f0f2dd2319d04ab93fa991b44f76b1b72b60ccd9356a7c04e8049019e8a",
      "pencil-families": "114ea8a7c0ac3e66fc7ca1855a9367cafe8887b6bc06a5deb789dcc6c3cf57f9"}),
    # the verify_equivalence digests
    (["reconstruct", "--delta=pi", "--q=2", "--n=6", "--k=2", "--m=0", "--w=4"],
     {"reconstruct": "390cf9be5dc7b8000335f7d3fc368714eb7b9676909e936b91ef8f446d98429a"}),
    # the single-point space: no lines, so no cliques for the oracle to report
    (["verify-all", "--q=2", "--n=4", "--k=2", "--m=2", "--w=2"],
     {"verify-all": "b7ce6285bec8e0fa857cf97a9c44860b5397bffc52b39ee16f8844419411445e"}),
])
def test_report_bytes(tmp_path, argv, sha256):
    # every report and artifact the command writes, byte for byte (not the
    # .meta.json sidecar, which holds the timestamp)
    assert cli.main([*argv, "--seed=11", "--out", str(tmp_path)]) == OK
    got = {p.name.rsplit("-", 1)[0]: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*.json") if not p.name.endswith(".meta.json")}
    assert got == sha256


def test_build_writes_no_space_cache(tmp_path):
    payload, code = cmd_build(cfg(tmp_path))
    assert code == OK
    assert "space_artifact" not in payload
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("key, value, message", [
    ("q", "2", "q must be int, not '2'"),
    ("seed", True, "seed must be int, not True"),
    ("delta", 5, "delta must be str, not 5"),
    ("out_dir", 7, "out_dir must be a path, not 7"),
    # key None: the value is the whole file
    (None, [1, 2], "the config file must hold a JSON object, not [1, 2]"),
    (None, "x", 'the config file must hold a JSON object, not "x"'),
    (None, None, "the config file must hold a JSON object, not null"),
])
def test_config_file_value_of_the_wrong_type_exits_2(tmp_path, capsys, key, value, message):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(value if key is None else dict(SMALL, **{key: value})))
    code = cli.main(["build", "--config", str(f)] + ([] if key == "out_dir" else
                                                      ["--out", str(tmp_path)]))
    assert code == CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not list(tmp_path.glob("build-*.json"))


def test_truncated_relation_cache_is_recomputed(tmp_path, capsys):
    fresh_dir, dir_ = tmp_path / "fresh", tmp_path / "cut"
    argv = ["relations", "--q=2", "--n=5", "--k=2", "--m=1", "--w=3", "--out"]
    assert cli.main(argv + [str(fresh_dir)]) == OK
    assert cli.main(argv + [str(dir_)]) == OK
    cache = next((dir_ / "cache").glob("relation-pi-*.json"))
    cache.write_bytes(cache.read_bytes()[:100])
    assert cli.main(argv + [str(dir_)]) == OK
    assert cache.read_bytes() == (fresh_dir / "cache" / cache.name).read_bytes()
    assert sorted(p.name for p in (dir_ / "cache").iterdir()) == sorted(
        p.name for p in (fresh_dir / "cache").iterdir())  # no temporary file left
    report = next(p for p in dir_.glob("relations-*.json") if ".meta" not in p.name)
    assert report.read_bytes() == (fresh_dir / report.name).read_bytes()
    assert json.loads(report.with_suffix(".meta.json").read_text()).keys() == {
        "written_at", "report"}


def test_relation_cache_holding_the_other_relation_is_recomputed(tmp_path):
    fresh_dir, dir_ = tmp_path / "fresh", tmp_path / "swapped"
    argv = ["relations", "--q=2", "--n=5", "--k=2", "--m=1", "--w=3", "--out"]
    assert cli.main(argv + [str(fresh_dir)]) == OK
    assert cli.main(argv + [str(dir_)]) == OK
    pi_cache = next((dir_ / "cache").glob("relation-pi-*.json"))
    rho_cache = next((dir_ / "cache").glob("relation-rho-*.json"))
    pi_cache.write_bytes(rho_cache.read_bytes())
    assert cli.main(argv + [str(dir_)]) == OK
    assert pi_cache.read_bytes() == (fresh_dir / "cache" / pi_cache.name).read_bytes()
    report = next(p for p in dir_.glob("relations-*.json") if ".meta" not in p.name)
    sanity = json.loads(report.read_text())["sanity"]
    assert sanity["pi_edges"] != sanity["rho_edges"]
    assert report.read_bytes() == (fresh_dir / report.name).read_bytes()
    assert json.loads(report.with_suffix(".meta.json").read_text()).keys() == {
        "written_at", "report"}
