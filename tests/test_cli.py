"""Command-line behavior: exit codes are part of the contract.

0 means everything requested passed, 1 means a fixture or check failed,
2 means the request itself was malformed.
"""

import json

import pytest

from shufflecat import cli
from shufflecat.fixtures import builtin_base_names, builtin_monoid_doc, load_json_resource

RUN_FAST = [
    "run",
    "--suite",
    "monad.laws",
    "--base",
    "arrow",
    "--max-points",
    "40",
]


def test_validate_accepts_the_shipped_fixtures(tmp_path, capsys):
    paths = []
    for name in builtin_base_names():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(load_json_resource(name + ".json")))
        paths.append(str(p))
    mon = tmp_path / "z2.json"
    mon.write_text(json.dumps(builtin_monoid_doc("z2")))
    paths.append(str(mon))

    assert cli.main(["validate", *paths]) == 0
    out = capsys.readouterr().out
    for p in paths:
        assert f"{p}: ok" in out
    assert "(monoid)" in out and "(category)" in out


def test_validate_rejects_a_broken_composition_table(tmp_path, capsys):
    doc = {
        "name": "loop",
        "objects": ["e"],
        "morphisms": [{"id": "s", "src": "e", "tgt": "e"}],
        "compose": [],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_validate_reports_each_file(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(load_json_resource("terminal.json")))
    missing = tmp_path / "nope.json"
    assert cli.main(["validate", str(good), str(missing)]) == 1
    out = capsys.readouterr().out
    assert f"{good}: ok" in out
    assert "nope.json: INVALID" in out


def test_validate_with_no_files_is_a_usage_error(capsys):
    assert cli.main(["validate"]) == 2
    assert "at least one fixture file" in capsys.readouterr().err


def test_run_writes_a_deterministic_report(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main([*RUN_FAST, "--report", str(out1)]) == 0
    assert cli.main([*RUN_FAST, "--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert isinstance(report, list) and report[0]["suite"] == "monad.laws"
    assert report[0]["passed"] is True
    assert all("wall_ms" not in entry for entry in report)
    table = capsys.readouterr().out
    assert "monad.laws" in table
    assert "all checks passed" in table


def test_run_accepts_a_fixture_path(tmp_path):
    p = tmp_path / "arrow.json"
    p.write_text(json.dumps(load_json_resource("arrow.json")))
    args = list(RUN_FAST)
    args[args.index("arrow")] = str(p)
    assert cli.main(args) == 0


def test_run_with_timings_adds_wall_clock(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main([*RUN_FAST, "--timings", "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all("wall_ms" in entry for entry in report)


def test_run_unknown_suite_lists_valid_ids(capsys):
    assert cli.main(["run", "--suite", "monad.lawz"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite id 'monad.lawz'" in err
    assert "monad.laws" in err


def test_run_reports_failures_with_exit_one(monkeypatch, capsys):
    fake = [
        {
            "suite": "monad.laws",
            "law": "x",
            "passed": False,
            "checks": [
                {"name": "eta-then-mu", "passed": False, "kind": "fun-equality",
                 "points": 3, "truncated": False, "phase": "components",
                 "counterexample": {"point": "x"}, "detail": ""}
            ],
        }
    ]
    monkeypatch.setattr(cli, "run_suites", lambda ids, ctx, timings=False: fake)
    assert cli.main(["run", "--suite", "monad.laws"]) == 1
    out = capsys.readouterr().out
    assert "monad.laws:eta-then-mu" in out


def test_eval_prints_the_interleaving_component(capsys):
    assert cli.main(["eval", "(gamma A B)", "((x y),(y x))"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["perm"] == [1, 3, 2, 4]
    flat = {c for pair in data["components"] for c in pair}
    assert flat == {"id_x", "id_y"}


def test_eval_identity_cell(capsys):
    assert cli.main(["eval", "(idcell (identity A))", "x"]) == 0
    assert json.loads(capsys.readouterr().out) == "id_x"


def test_eval_malformed_expression_has_offset(capsys):
    assert cli.main(["eval", "(gamma A", "x"]) == 2
    assert "offset 0" in capsys.readouterr().err


def test_eval_wrong_literal_is_a_usage_error(capsys):
    assert cli.main(["eval", "(gamma A B)", "(x,y)"]) == 2
    err = capsys.readouterr().err
    assert "parenthesized" in err or "offset" in err


def test_eval_unknown_base_is_a_usage_error(capsys):
    assert cli.main(["eval", "--base", "nosuch", "(gamma A B)", "((x),(x))"]) == 2
    assert "nosuch" in capsys.readouterr().err


def test_catalog_lists_every_suite(capsys):
    from shufflecat.suites import SUITES

    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    for ident in SUITES:
        assert ident in out


def test_missing_command_is_a_usage_error():
    assert cli.main([]) == 2


@pytest.mark.parametrize("flag, value", [("--max-seq-len", "0"), ("--max-points", "-5")])
def test_run_invalid_budget_is_a_usage_error(capsys, flag, value):
    assert cli.main(["run", "--suite", "monad.laws", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: invalid budget") and err.count("\n") == 1


def test_run_unwritable_report_fails_before_the_run(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("suites ran before the report path was checked")

    monkeypatch.setattr(cli, "run_suites", no_run)
    assert cli.main([*RUN_FAST, "--report", "/nonexistent/dir/out.json"]) == 2
    assert "cannot write the report" in capsys.readouterr().err


def test_run_budget_error_fails_only_its_check(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main([*RUN_FAST, "--max-nest", "0", "--report", str(out)]) == 1
    checks = json.loads(out.read_text())[0]["checks"]
    harness = [c for c in checks if c["phase"] == "harness"]
    assert harness and all(not c["passed"] for c in harness)
    assert all("nesting depth" in c["detail"] for c in harness)
    # the checks that fit the budget still ran
    assert any(c["passed"] and c["points"] > 0 for c in checks)
    assert "check(s) failed" in capsys.readouterr().out
