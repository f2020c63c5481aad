"""Fast tests of the benchmark's own output checks.

    python3 -m pytest -q spinebench/test_checks.py

Each check must accept a correct output and reject a wrong count, a dropped
or newly skipped check, and an asymmetric relation row.  The reports here
are written by hand; the program is not run.
"""

import copy
import json

import pytest

import checks

CFG1 = (2, 6, 2, 1, 3)
AFFINE = (2, 6, 2, 0, 4)
CFG1_KINDS = {"affine": 294, "alpha": 784, "omega": 392}


def rle(row: set[int], count: int) -> str:
    runs, bit, length = [], 0, 0
    for pos in range(count):
        if (pos in row) == bool(bit):
            length += 1
        else:
            runs.append(length)
            bit, length = 1 - bit, 1
    runs.append(length)
    return ",".join(map(str, runs))


def write_cache(out_dir, cfg, kind, rows):
    path = checks.cache_path(out_dir, cfg, kind)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"delta_kind": kind, "count": len(rows),
           "adjacency": [rle(row, len(rows)) for row in rows]}
    path.write_text(json.dumps(doc))


def verify_all_report(cfg=CFG1, kinds=CFG1_KINDS):
    report = {"config": dict(zip("qnkmw", cfg), seed=11, delta="both"),
              "case": {"tag": checks.case_tag(*cfg)}, "ok": True, "failed": [],
              "checks": {}}
    for name, applicable in checks.expected_checks(cfg, kinds).items():
        report["checks"][name] = {"ok": True} if applicable else {"applicable": False, "ok": True}
    report["checks"]["subspace_counts"]["checked"] = 22
    for kind in checks.KINDS:
        report["checks"][f"reconstruction_{kind}"]["uncovered_lines"] = {"omega": 392}
    return report


def test_point_counts_of_the_configs():
    assert checks.gaussian_binomial(3, 1, 2) == 7
    assert checks.gaussian_binomial(4, 2, 3) == 130
    counts = [checks.point_count(*cfg) for cfg in
              (CFG1, AFFINE, (3, 5, 2, 1, 3), (3, 5, 2, 1, 2), (3, 4, 2, 1, 3))]
    assert counts == [196, 256, 468, 156, 117]


def test_expected_checks_follow_gates_and_host_condition():
    cfg1 = checks.expected_checks(CFG1, CFG1_KINDS)
    assert not cfg1["ternary_pencils"] and not cfg1["counterexample"]
    assert cfg1["upsilon_structure_pi"] and not cfg1["reconstruction_pi"]
    affine = checks.expected_checks(AFFINE, {"affine": 5760})
    assert affine["reconstruction_pi"] and affine["reconstruction_rho"]
    cex = checks.expected_checks((3, 5, 2, 1, 2), {"alpha": 1, "omega": 1})
    assert cex["counterexample"] and "reconstruction_pi" not in cex


def test_build_rejects_a_wrong_point_count():
    report = {"config": dict(zip("qnkmw", CFG1), seed=11), "points": 196,
              "lines": 1470, "line_kinds": CFG1_KINDS, "case": "none",
              "gates": {"pencil": False, "bundle": True}}
    assert checks.check_build(report, CFG1, 11) == []
    report["points"] = 195
    assert checks.check_build(report, CFG1, 11)


def test_verify_all_rejects_dropped_and_newly_skipped_checks():
    assert checks.check_verify_all(verify_all_report(), CFG1, 11, CFG1_KINDS) == []
    dropped = verify_all_report()
    del dropped["checks"]["exchange_criterion"]
    assert any("dropped" in p for p in checks.check_verify_all(dropped, CFG1, 11, CFG1_KINDS))
    skipped = verify_all_report()
    skipped["checks"]["pencil_recovery"]["applicable"] = False
    assert checks.check_verify_all(skipped, CFG1, 11, CFG1_KINDS)
    failing = verify_all_report()
    failing["checks"]["foundations"]["ok"] = False
    assert checks.check_verify_all(failing, CFG1, 11, CFG1_KINDS)
    wrong_cover = verify_all_report()
    wrong_cover["checks"]["reconstruction_rho"]["uncovered_lines"] = {"omega": 391}
    assert checks.check_verify_all(wrong_cover, CFG1, 11, CFG1_KINDS)


def test_reconstruct_rejects_a_wrong_bundle_count():
    good = {"config": dict(zip("qnkmw", AFFINE), seed=11, delta="pi"),
            "gates": {"pencil": False, "bundle": True},
            "pi": {"applicable": True, "ok": True, "bundle_count": 256, "point_count": 256,
                   "family_size": 768, "checks": {"bijection": True, "count": True}}}
    assert checks.check_reconstruct(good, AFFINE, 11, "pi") == []
    short = copy.deepcopy(good)
    short["pi"]["bundle_count"] = 255
    assert checks.check_reconstruct(short, AFFINE, 11, "pi")
    broken = copy.deepcopy(good)
    broken["pi"]["checks"]["bijection"] = False
    assert checks.check_reconstruct(broken, AFFINE, 11, "pi")


PI = [{1, 2}, {0, 2}, {0, 1, 3}, {2}]
RHO = [{1}, {0}, {3}, {2}]


def test_caches_pass_when_symmetric_irreflexive_and_nested(tmp_path):
    write_cache(tmp_path, CFG1, "pi", PI)
    write_cache(tmp_path, CFG1, "rho", RHO)
    assert checks.check_caches(tmp_path, CFG1, lines=4, edge_counts={"pi": 4, "rho": 2}) == []


@pytest.mark.parametrize("kind, rows, edges, expect", [
    ("pi", [{1, 2}, {0, 2}, {0, 1, 3}, set()], {"pi": 4, "rho": 2}, "not symmetric"),
    ("pi", [{0, 1, 2}, {0, 2}, {0, 1, 3}, {2}], {"pi": 4, "rho": 2}, "itself"),
    ("pi", PI, {"pi": 5, "rho": 2}, "edges"),
    ("rho", [{3}, set(), set(), {0}], {"pi": 4, "rho": 1}, "contained"),
])
def test_caches_reject_bad_relations(tmp_path, kind, rows, edges, expect):
    write_cache(tmp_path, CFG1, "pi", PI)
    write_cache(tmp_path, CFG1, "rho", RHO)
    write_cache(tmp_path, CFG1, kind, rows)
    problems = checks.check_caches(tmp_path, CFG1, lines=4, edge_counts=edges)
    assert any(expect in p for p in problems), problems


def test_repeat_passes_must_match(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for d in (first, second):
        d.mkdir()
        (d / "report.json").write_text("{}\n")
        (d / "report.meta.json").write_text(str(d))
    assert checks.compare_passes(first, second, whole=True) == []
    (second / "report.json").write_text('{"x": 1}\n')
    assert checks.compare_passes(first, second, whole=True)
    (second / "report.json").write_text("{}\n")
    (first / "extra.json").write_text("{}\n")
    assert checks.compare_passes(first, second, whole=True)
    assert checks.compare_passes(first, second, whole=False) == []
