import json
import pathlib
import subprocess
import sys
import types

import pytest

from weilchar import checks, cli, ffield, modp

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCN = ROOT / "scenarios"


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_empty_scenario_list(tmp_path, capsys):
    f = tmp_path / "empty.scn"
    f.write_text(json.dumps({"scenarios": []}))
    assert run_cli(["run", f]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rows"] == []


def test_bundled_sl2_f5(tmp_path):
    report = tmp_path / "rep.json"
    assert run_cli(["run", SCN / "sl2_f5.scn", "--report", report]) == 0
    doc = json.loads(report.read_text())
    assert len(doc["rows"]) >= 16
    assert doc["all_pass"] is True


def test_bundled_sign_f3(tmp_path):
    report = tmp_path / "rep.json"
    assert run_cli(["run", SCN / "sign_f3.scn", "--report", report, "--jobs", 2]) == 0
    assert json.loads(report.read_text())["all_pass"] is True


def test_corrupted_sign_fixture_fails(tmp_path, capsys):
    doc = json.loads((SCN / "sign_f3.scn").read_text())
    corrupted = [s for s in doc["scenarios"] if s["id"] == "branch-ram"]
    corrupted[0]["payload"]["orbits"][0]["expect_value"] = -1.0  # true value is +1
    f = tmp_path / "bad.scn"
    f.write_text(json.dumps({"scenarios": corrupted}))
    assert run_cli(["run", f, "--report", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert "branch-ram" in err and "pinned value" in err


def test_parse_and_validation_exit_codes(tmp_path):
    assert run_cli(["run", tmp_path / "missing.scn"]) == 2
    bad = tmp_path / "bad.scn"
    bad.write_text("{not json")
    assert run_cli(["run", bad]) == 2
    unknown = tmp_path / "unknown.scn"
    unknown.write_text(json.dumps({"scenarios": [{"id": "x", "kind": "nope"}]}))
    assert run_cli(["run", unknown]) == 3
    dup = tmp_path / "dup.scn"
    dup.write_text(json.dumps({"scenarios": [
        {"id": "x", "kind": "root-datum", "payload": {"name": "A2"}},
        {"id": "x", "kind": "root-datum", "payload": {"name": "A2"}},
    ]}))
    assert run_cli(["run", dup]) == 3


def test_jobs_below_one_rejected_at_parse_time(capsys):
    for jobs in (0, -2):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", SCN / "sign_f3.scn", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_run_summary_reports_measured_wall_time(tmp_path, monkeypatch, capsys):
    # cmd_run reads the clock once before and once after the pool
    clock = iter([10.0, 12.5])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(time=lambda: next(clock)))
    assert run_cli(["run", SCN / "sign_f3.scn", "--report", tmp_path / "r.json", "--jobs", 2]) == 0
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    assert capsys.readouterr().err.splitlines()[-1] == "%d rows, 0 failures, 2.50s" % len(rows)


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["run", SCN / "sl2_f5.scn", "--report", a, "--seed", 42]) == 0
    assert run_cli(["run", SCN / "sl2_f5.scn", "--report", b, "--seed", 42, "--jobs", 3]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "rep.csv"
    assert run_cli(["run", SCN / "sign_f3.scn", "--report", out, "--format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("scenario,quantity,formula,oracle")
    assert len(lines) > 5


def test_nan_is_a_failure():
    row = cli.Row.compare("x", "q", float("nan"), 0.0, 1e-8)
    assert not row.passed


def test_selfcheck_filter_and_fault(capsys):
    assert run_cli(["selfcheck", "--filter", "ffield.sgn-mult"]) == 0
    capsys.readouterr()
    assert run_cli(["selfcheck", "--filter", "ffield.sgn-mult", "--fault", "sgn"]) == 1


def test_sgn_fault_reaches_only_formula_checks():
    # the oracle never calls an ffield sign function, so exactly the checks
    # that compare a quadratic-character formula go red; only the assemble
    # check's internal dual-path assertion turns the fault into an exception
    sgn = ffield.sgn_mult
    rows, _ = checks.run_checks(fault="sgn")
    assert ffield.sgn_mult is sgn
    assert {r.scenario_id for r in rows if not r.passed} == {
        "ffield.sgn-mult",
        "gerardin.semisimple",
        "gerardin.polarized-agrees",
        "signcalc.oracle",
        "signcalc.assemble",
        "signcalc.f1-forms",
    }
    assert [r.scenario_id for r in rows if r.quantity == "exception"] == ["signcalc.assemble"]


def test_root_datum_command(capsys):
    assert run_cli(["root-datum", "A2.flip"]) == 0
    out = capsys.readouterr().out
    assert "type 3" in out and "type 2" in out


def test_tabulate_ramified_deterministic(capsys):
    assert run_cli(["tabulate-ramified"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["tabulate-ramified"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "oracle-computed" in first
    assert run_cli(["tabulate-ramified", "--out-of-cap", "3^9"]) == 0
    assert "refused" in capsys.readouterr().out


def test_tabulate_ramified_rows_equal_closed_form(capsys):
    # both tabulated families have k_res = F_p, so the closed form
    # sgn_{k_res}(-2) of the sign formula is the Legendre symbol (-2/p)
    assert run_cli(["tabulate-ramified"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "branch,p,k_alpha_degree,C,constant,provenance"
    primes = set()
    for line in lines:
        fields = line.split(",")
        p, constant = int(fields[1]), int(fields[-2])
        primes.add(p)
        assert constant == modp.legendre(-2, p), line
    assert primes == {3, 5, 7, 11, 13}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weilchar.cli", "root-datum", "A1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0
    assert "rank 1" in proc.stdout


def test_sp4_bundle(tmp_path):
    report = tmp_path / "rep.json"
    assert run_cli(["run", SCN / "sp4_f3.scn", "--report", report]) == 0
    doc = json.loads(report.read_text())
    assert len(doc["rows"]) == 54 and doc["all_pass"]


def test_invalid_action_payload_is_validation_error(tmp_path):
    f = tmp_path / "bad_action.scn"
    f.write_text(json.dumps({"scenarios": [{
        "id": "x", "kind": "sign-block",
        "payload": {"action": {"phi": 3, "gamma_gens": [[1, 2, 0]], "neg": [1, 0, 2], "theta": [0, 1, 2]},
                    "orbits": []},
    }]}))
    assert run_cli(["run", f]) == 3


def test_weil_verify_dump(tmp_path):
    f = tmp_path / "dump.scn"
    f.write_text(json.dumps({"scenarios": [{
        "id": "d", "kind": "weil-verify",
        "payload": {"p": 3, "n": 1, "pairs": 5, "words": 3, "dump_operators": True},
    }]}))
    report = tmp_path / "rep.json"
    assert run_cli(["run", f, "--report", report]) == 0
    doc = json.loads(report.read_text())
    dump_rows = [r for r in doc["rows"] if "dump" in r["quantity"]]
    assert len(dump_rows) == 1
    entries = json.loads(dump_rows[0]["formula"])
    assert len(entries) == 9 and all(len(e) == 2 for e in entries)
