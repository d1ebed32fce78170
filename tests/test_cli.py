import dataclasses
import itertools
import json
import pathlib
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from weilchar import checks, cli, lattice, modp, symplectic as sym, weil

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


@pytest.mark.parametrize("tol", ["abc", "inf", "-inf", "nan", -1e-9, -1, None, True, [1e-8]])
def test_bad_scenario_tolerance_is_a_validation_error(tol, tmp_path, capsys):
    # a tolerance must be a finite float >= 0: inf or nan would pass every
    # row, a negative one would fail rows whose error is exactly 0
    doc = json.loads((SCN / "sl2_f5.scn").read_text())
    scn = dict(doc["scenarios"][0], tolerance=tol)
    f = tmp_path / "tol.scn"
    f.write_text(json.dumps({"scenarios": [scn]}))
    assert run_cli(["run", f, "--report", tmp_path / "r.json"]) == 3
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _run_one_scenario(scn, tmp_path, capsys):
    f = tmp_path / "one.scn"
    f.write_text(json.dumps({"scenarios": [scn]}))
    code = run_cli(["run", f, "--report", tmp_path / "r.json"])
    return code, capsys.readouterr().err


def test_scenario_entry_not_an_object_names_its_position(tmp_path, capsys):
    code, err = _run_one_scenario(["x", "root-datum"], tmp_path, capsys)
    assert code == 3
    assert "validation error: scenarios[0] must be an object" in err


def test_scenario_id_not_a_string_names_its_position(tmp_path, capsys):
    code, err = _run_one_scenario({"id": ["x"], "kind": "root-datum", "payload": {"name": "A2"}}, tmp_path, capsys)
    assert code == 3
    assert "validation error: scenarios[0].id must be a string" in err


@pytest.mark.parametrize("key, value, message", [
    ("alpha", [0], "alpha must be an integer, got [0]"),
    ("classification", ["asym/sym-ur"], "unknown classification ['asym/sym-ur']"),
    ("classification", {"a": 1}, "unknown classification {'a': 1}"),
])
def test_unhashable_orbit_entry_is_a_validation_error(key, value, message, tmp_path, capsys):
    # the scenario checks are cached per family; with the bundled orbit's
    # family cached, an unhashable entry still gets its own refusal, not the
    # cache's TypeError
    scn = json.loads((SCN / "sign_f3.scn").read_text())["scenarios"][0]
    assert _run_one_scenario(scn, tmp_path, capsys)[0] == 0
    scn["payload"]["orbits"][0][key] = value
    code, err = _run_one_scenario(scn, tmp_path, capsys)
    assert code == 3
    assert "validation error: branches-f3: " + message in err


def test_scenario_tolerance_an_object_names_the_scenario(tmp_path, capsys):
    scn = {"id": "rd", "kind": "root-datum", "payload": {"name": "A2"}, "tolerance": {"abs": 1e-8}}
    code, err = _run_one_scenario(scn, tmp_path, capsys)
    assert code == 3
    assert "validation error: rd: tolerance must be a finite number >= 0" in err
    # a numeric string is still a tolerance
    code, err = _run_one_scenario(dict(scn, tolerance="0"), tmp_path, capsys)
    assert code == 0, err


def test_weil_verify_above_the_dense_cap_is_refused_before_any_model(tmp_path, capsys, monkeypatch):
    def no_model(space, polarization=None):
        raise weil.WeilError("model of dimension %d built" % space.p ** (space.dim // 2))

    monkeypatch.setattr(weil, "WeilModel", no_model)
    assert weil.DENSE_DIM_CAP == 3**6
    for n in (7, 9, 10**9):
        code, err = _run_one_scenario({"id": "w", "kind": "weil-verify", "payload": {"p": 3, "n": n}}, tmp_path, capsys)
        assert code == 3
        assert "validation error: w: p^n = 3^%d exceeds the dense operator cap 729" % n in err
    # at the cap the runner goes on to build the model
    code, err = _run_one_scenario({"id": "w", "kind": "weil-verify", "payload": {"p": 3, "n": 6}}, tmp_path, capsys)
    assert code == 3 and "model of dimension 729 built" in err


def _sign_payload(edit):
    doc = json.loads((SCN / "sign_f3.scn").read_text())
    payload = doc["scenarios"][0]["payload"]
    edit(payload)
    return {"id": "s", "kind": "sign-block", "payload": payload}


def _assemble_payload(edit):
    doc = json.loads((SCN / "sign_f3.scn").read_text())
    scn = next(s for s in doc["scenarios"] if s["kind"] == "assemble")
    edit(scn["payload"])
    return {"id": "a", "kind": "assemble", "payload": scn["payload"]}


def _with_s_values(keys):
    values = {"0": "3^1:2", "00": "3^1:1", "1": "3^1:2", "2": "3^2:0,2", "99": "3^1:1", "-2": "3^1:1"}
    return lambda: _assemble_payload(lambda pl: pl.update(s_values={k: values[k] for k in keys}))


# a permutation of 40 points of order lcm(5, 7, 8, 9, 11) = 27,720, above
# matrix_order's 10,000-power bound: without the rank cap the walk took about a minute
CAP_CYCLES = (5, 7, 8, 9, 11)


def _cycles_matrix(cycles):
    """The permutation matrix of consecutive cycles of the given lengths."""
    perm, start = [], 0
    for c in cycles:
        perm += [start + (i + 1) % c for i in range(c)]
        start += c
    return [[int(perm[j] == i) for j in range(start)] for i in range(start)]


BAD_PAYLOADS = {
    "alpha-negative": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(alpha=-1)),
    "alpha-past-last-root": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(alpha=9)),
    "float-permutation": lambda: _sign_payload(lambda pl: pl["action"].update(gamma_gens=[[1.0, 0.0, 3.0, 2.0]])),
    "orbits-not-a-list": lambda: _sign_payload(lambda pl: pl.update(orbits=5)),
    "action-null": lambda: _sign_payload(lambda pl: pl.update(action=None)),
    "phi-a-list": lambda: _sign_payload(lambda pl: pl["action"].update(phi=[4])),
    "weil-verify-n-0": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 3, "n": 0}},
    "twisted-trace-group-0": lambda: {"id": "t", "kind": "twisted-trace", "payload": {"p": 3, "groups": [0]}},
    "gerardin-unknown-factor": lambda: {"id": "g", "kind": "gerardin",
                                        "payload": {"p": 3, "factors": [{"type": "bogus", "subdegree": 1}]}},
    "gerardin-factors-null": lambda: {"id": "g", "kind": "gerardin", "payload": {"p": 3, "factors": None}},
    "gerardin-factors-empty": lambda: {"id": "g", "kind": "gerardin", "payload": {"p": 3, "factors": []}},
    "twisted-trace-groups-not-a-list": lambda: {"id": "t", "kind": "twisted-trace", "payload": {"p": 3, "groups": 5}},
    # scalars: each integer field refuses a list, null, string or float
    "weil-verify-p-a-list": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": [3]}},
    "weil-verify-n-null": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 3, "n": None}},
    "weil-verify-pairs-a-string": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 3, "pairs": "5"}},
    "weil-verify-words-a-float": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 3, "words": 2.5}},
    "twisted-trace-p-null": lambda: {"id": "t", "kind": "twisted-trace", "payload": {"p": None, "groups": [2]}},
    "twisted-trace-group-a-list": lambda: {"id": "t", "kind": "twisted-trace", "payload": {"p": 3, "groups": [[2]]}},
    "twisted-trace-trials-a-list": lambda: {"id": "t", "kind": "twisted-trace",
                                            "payload": {"p": 3, "groups": [2], "trials": [1]}},
    "gerardin-p-a-string": lambda: {"id": "g", "kind": "gerardin",
                                    "payload": {"p": "3", "factors": [{"type": "split", "subdegree": 1}]}},
    "gerardin-subdegree-null": lambda: {"id": "g", "kind": "gerardin",
                                        "payload": {"p": 3, "factors": [{"type": "split", "subdegree": None}]}},
    "alpha-a-list": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(alpha=[0])),
    # C is checked before varsigma(C)/C divides by it
    "C-zero": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(C="3^2:0,0")),
    # digits outside 0..p-1 would name another element: 4 and -2 are 1 mod 3
    "C-digit-out-of-range": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(C="3^2:4,0")),
    "eta-digit-negative": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(eta_alpha="3^2:0,-2")),
    "lattice-check-pi0-trials-null": lambda: {"id": "l", "kind": "lattice-check", "payload": {"pi0_trials": None}},
    # values of the wrong JSON type where a runner indexes, iterates or parses
    "payload-a-list": lambda: {"id": "w", "kind": "weil-verify", "payload": [1, 2]},
    "vartheta-s-a-number": lambda: _assemble_payload(lambda pl: pl.update(vartheta_s=5)),
    "vartheta-s-of-lists": lambda: _assemble_payload(lambda pl: pl.update(vartheta_s=[[1], 0])),
    "matrices-a-number": lambda: {"id": "l", "kind": "lattice-check", "payload": {"matrices": 5}},
    "expect-torsion-a-number": lambda: {"id": "l", "kind": "lattice-check",
                                        "payload": {"matrices": [{"theta": [[-1]], "expect_torsion": 5}]}},
    "datum-name-a-list": lambda: {"id": "r", "kind": "root-datum", "payload": {"name": ["A2"]}},
    "datum-name-unknown": lambda: {"id": "r", "kind": "root-datum", "payload": {"name": "A9"}},
    "expect-type-counts-a-number": lambda: {"id": "r", "kind": "root-datum",
                                            "payload": {"name": "A2", "expect_type_counts": 5}},
    "field-tag-a-number": lambda: _sign_payload(lambda pl: pl["orbits"][0]["fields"].update(k_alpha=3)),
    "C-a-number": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(C=5)),
    "s-value-a-number": lambda: _assemble_payload(lambda pl: pl["s_values"].update({"0": 5})),
    "factor-type-a-list": lambda: {"id": "g", "kind": "gerardin",
                                   "payload": {"p": 3, "factors": [{"type": ["split"], "subdegree": 1}]}},
    "expect-value-a-list": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(expect_value=[1])),
    "datum-roots-a-number": lambda: {"id": "r", "kind": "root-datum",
                                     "payload": {"rank": 1, "roots": 5, "coroots": [[2]], "theta": [[1]]}},
    "datum-rank-a-list": lambda: {"id": "r", "kind": "root-datum",
                                  "payload": {"rank": [1], "roots": [[1]], "coroots": [[2]], "theta": [[1]]}},
    # root indices of the assemble payload (4 roots; 0 and 1 share a Sigma-orbit)
    "s-values-key-past-last-root": _with_s_values(["0", "2", "99"]),
    "s-values-key-negative": _with_s_values(["0", "2", "-2"]),
    "s-values-keys-share-a-sigma-orbit": _with_s_values(["0", "1", "2"]),
    "s-values-keys-share-a-sigma-orbit-reordered": _with_s_values(["1", "0", "2"]),
    "s-values-key-spelled-twice": _with_s_values(["0", "00", "2"]),
    "bool-permutation": lambda: _assemble_payload(lambda pl: pl["action"].update(neg=[True, False, 3, 2])),
    # counts that would check nothing
    "weil-verify-pairs-0": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 3, "pairs": 0}},
    "weil-verify-words-0": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 3, "words": 0}},
    "weil-verify-pairs-negative": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 3, "pairs": -4}},
    "twisted-trace-trials-0": lambda: {"id": "t", "kind": "twisted-trace", "payload": {"p": 3, "groups": [2], "trials": 0}},
    "twisted-trace-trials-negative": lambda: {"id": "t", "kind": "twisted-trace",
                                              "payload": {"p": 3, "groups": [2], "trials": -1}},
    "lattice-check-nothing": lambda: {"id": "l", "kind": "lattice-check", "payload": {}},
    "lattice-check-empty-matrices-0-trials": lambda: {"id": "l", "kind": "lattice-check",
                                                      "payload": {"matrices": [], "pi0_trials": 0}},
    "lattice-check-pi0-trials-negative": lambda: {"id": "l", "kind": "lattice-check", "payload": {"pi0_trials": -3}},
    # the Schrodinger model needs an odd prime, and a chain model a size cap
    "twisted-trace-p-9": lambda: {"id": "t", "kind": "twisted-trace", "payload": {"p": 9, "groups": [2]}},
    "twisted-trace-p-15": lambda: {"id": "t", "kind": "twisted-trace", "payload": {"p": 15, "groups": [2]}},
    "weil-verify-p-9": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 9}},
    "weil-verify-p-1": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 1}},
    "weil-verify-p-0": lambda: {"id": "w", "kind": "weil-verify", "payload": {"p": 0}},
    # the model cap bounds p before the primality test, whose trial division
    # ran past 5 s on this product of two primes near 10^9
    "twisted-trace-p-huge-composite": lambda: {"id": "t", "kind": "twisted-trace",
                                               "payload": {"p": 1000000007 * 1000000009, "groups": [1]}},
    "twisted-trace-chain-over-the-cap": lambda: {"id": "t", "kind": "twisted-trace", "payload": {"p": 3, "groups": [20]}},
    # every group within the cap, their direct sum above it
    "twisted-trace-sum-over-the-cap": lambda: {"id": "t", "kind": "twisted-trace",
                                               "payload": {"p": 3, "groups": [1] * 50, "trials": 3}},
    # the parts are drawn from all of Sp_2(F_p)
    "twisted-trace-group-over-the-enumeration-cap": lambda: {"id": "t", "kind": "twisted-trace",
                                                             "payload": {"p": 41, "groups": [1], "trials": 1}},
    # theta and the root data must have the datum's rank
    "lattice-check-theta-1x2": lambda: {"id": "l", "kind": "lattice-check",
                                        "payload": {"matrices": [{"theta": [[1, 2]], "expect_torsion": []}]}},
    "lattice-check-theta-3x2": lambda: {"id": "l", "kind": "lattice-check",
                                        "payload": {"matrices": [{"theta": [[1, 0], [0, 1], [0, 0]], "expect_torsion": []}]}},
    "datum-theta-below-rank": lambda: {"id": "r", "kind": "root-datum", "payload": {
        "rank": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]], "theta": [[1]]}},
    "datum-root-below-rank": lambda: {"id": "r", "kind": "root-datum", "payload": {
        "rank": 2, "roots": [[2], [-2]], "coroots": [[1, 0], [-1, 0]], "theta": [[1, 0], [0, 1]]}},
    "datum-coroot-above-rank": lambda: {"id": "r", "kind": "root-datum", "payload": {
        "rank": 1, "roots": [[1], [-1]], "coroots": [[2, 5], [-2, 5]], "theta": [[1]]}},
    # a theta above lattice.ORDER_RANK_CAP is refused before its first power
    "lattice-check-theta-above-the-rank-cap": lambda: {"id": "l", "kind": "lattice-check", "payload": {
        "matrices": [{"theta": _cycles_matrix(CAP_CYCLES), "expect_torsion": []}]}},
    "datum-theta-above-the-rank-cap": lambda: {"id": "r", "kind": "root-datum", "payload": {
        "rank": 40, "roots": [], "coroots": [], "theta": _cycles_matrix(CAP_CYCLES)}},
    # an entry that is null or a list is no matrix entry
    "lattice-check-theta-null-entry": lambda: {"id": "l", "kind": "lattice-check",
                                               "payload": {"matrices": [{"theta": [[None]], "expect_torsion": []}]}},
    "lattice-check-theta-list-entry": lambda: {"id": "l", "kind": "lattice-check",
                                               "payload": {"matrices": [{"theta": [[[1]], [2]], "expect_torsion": []}]}},
    # a float, a bool or a string is no integer entry, though int() would read it
    "lattice-check-theta-float-entry": lambda: {"id": "l", "kind": "lattice-check",
                                                "payload": {"matrices": [{"theta": [[1.5]], "expect_torsion": []}]}},
    "lattice-check-theta-bool-entry": lambda: {"id": "l", "kind": "lattice-check",
                                               "payload": {"matrices": [{"theta": [[True]], "expect_torsion": []}]}},
    "lattice-check-theta-string-entry": lambda: {"id": "l", "kind": "lattice-check",
                                                 "payload": {"matrices": [{"theta": [["3"]], "expect_torsion": []}]}},
    # sample counts above cli.SAMPLE_CAP, refused before the first sample
    "weil-verify-pairs-above-the-sample-cap": lambda: {"id": "w", "kind": "weil-verify",
                                                       "payload": {"p": 3, "pairs": 10**8}},
    "weil-verify-words-above-the-sample-cap": lambda: {"id": "w", "kind": "weil-verify",
                                                       "payload": {"p": 3, "words": 10**8}},
    "twisted-trace-trials-above-the-sample-cap": lambda: {"id": "t", "kind": "twisted-trace",
                                                          "payload": {"p": 3, "groups": [2], "trials": 10**8}},
    "lattice-check-pi0-trials-above-the-sample-cap": lambda: {"id": "l", "kind": "lattice-check",
                                                              "payload": {"pi0_trials": 10**8}},
    # sizes refused before anything of that size is computed or allocated:
    # a field degree before p^k, phi before a list of phi entries, a torus's
    # model dimension before its field blocks
    "C-field-degree-huge": lambda: _sign_payload(lambda pl: pl["orbits"][0].update(C="3^10000000:1")),
    "phi-huge": lambda: _sign_payload(lambda pl: pl["action"].update(phi=3 * 10**7)),
    "gerardin-torus-over-the-cap": lambda: {"id": "g", "kind": "gerardin",
                                            "payload": {"p": 3, "factors": [{"type": "split", "subdegree": 1}] * 800}},
    # within the model cap (3^9), but |T| = 4^9 elements to trace, refused
    # before the first is built
    "gerardin-torus-over-the-sample-cap": lambda: {"id": "g", "kind": "gerardin", "payload": {
        "p": 3, "factors": [{"type": "norm-one", "subdegree": 1}] * 9}},
    # a valid action of 2,000 roots (one Frobenius cycle), refused before any
    # orbit record is built
    "action-over-the-root-cap": lambda: _sign_payload(lambda pl: pl.update(action={
        "phi": 2000, "gamma_gens": [[(i + 1) % 2000 for i in range(2000)]],
        "neg": [(i + 1000) % 2000 for i in range(2000)], "theta": list(range(2000))})),
}
# the field a case's message must name, where the field alone is not enough
BAD_PAYLOAD_MESSAGES = {
    "s-values-key-past-last-root": "s_values key 99 is not a root index 0..3",
    "s-values-key-negative": "s_values key -2 is not a root index 0..3",
    "s-values-keys-share-a-sigma-orbit": "s_values keys 0 and 1 share a Sigma-orbit",
    "s-values-keys-share-a-sigma-orbit-reordered": "s_values keys 1 and 0 share a Sigma-orbit",
    "s-values-key-spelled-twice": "s_values keys ['0', '00', '2'] name one root twice",
    "bool-permutation": "neg is not a permutation of 0..3",
    "weil-verify-pairs-0": "pairs must be at least 1, got 0",
    "weil-verify-words-0": "words must be at least 1, got 0",
    "weil-verify-pairs-negative": "pairs must be at least 1, got -4",
    "twisted-trace-trials-0": "trials must be at least 1, got 0",
    "twisted-trace-trials-negative": "trials must be at least 1, got -1",
    "lattice-check-nothing": "a lattice check needs matrices or pi0_trials >= 1, got neither",
    "lattice-check-empty-matrices-0-trials": "a lattice check needs matrices or pi0_trials >= 1, got neither",
    "lattice-check-pi0-trials-negative": "pi0_trials must be at least 0, got -3",
    "twisted-trace-p-9": "the Schrodinger model needs an odd prime, got p = 9",
    "twisted-trace-p-15": "the Schrodinger model needs an odd prime, got p = 15",
    "weil-verify-p-9": "the Schrodinger model needs an odd prime, got p = 9",
    "weil-verify-p-1": "the Schrodinger model needs an odd prime, got p = 1",
    "weil-verify-p-0": "the Schrodinger model needs an odd prime, got p = 0",
    "twisted-trace-p-huge-composite": "p^n = 1000000016000000063^1 exceeds the model cap 32767",
    "weil-verify-pairs-above-the-sample-cap": "pairs must be at most 10000, got 100000000",
    "weil-verify-words-above-the-sample-cap": "words must be at most 10000, got 100000000",
    "twisted-trace-trials-above-the-sample-cap": "trials must be at most 10000, got 100000000",
    "lattice-check-pi0-trials-above-the-sample-cap": "pi0_trials must be at most 10000, got 100000000",
    "twisted-trace-chain-over-the-cap": "p^n = 3^20 exceeds the model cap 32767",
    "twisted-trace-sum-over-the-cap": "p^n = 3^50 exceeds the model cap 32767",
    "twisted-trace-group-over-the-enumeration-cap": "|Sp| = 68880 exceeds the enumeration cap 51840",
    "lattice-check-theta-1x2": "order of a non-square 1x2 matrix",
    "lattice-check-theta-3x2": "order of a non-square 3x2 matrix",
    "datum-theta-below-rank": "theta must be 2x2 for rank 2",
    "datum-root-below-rank": "root (2,) has length 1, not rank 2",
    "datum-coroot-above-rank": "coroot (2, 5) has length 2, not rank 1",
    "gerardin-factors-empty": "a direct sum needs at least one space",
    "lattice-check-theta-above-the-rank-cap": "order of a 40x40 matrix: rank 40 is above the cap 6",
    "datum-theta-above-the-rank-cap": "order of a 40x40 matrix: rank 40 is above the cap 6",
    "lattice-check-theta-null-entry": "theta entry must be an integer, got None",
    "lattice-check-theta-list-entry": "theta entry must be an integer, got [1]",
    "lattice-check-theta-float-entry": "theta entry must be an integer, got 1.5",
    "lattice-check-theta-bool-entry": "theta entry must be an integer, got True",
    "lattice-check-theta-string-entry": "theta entry must be an integer, got '3'",
    "C-digit-out-of-range": "'3^2:4,0' has a digit outside 0..2",
    "eta-digit-negative": "'3^2:0,-2' has a digit outside 0..2",
    "C-field-degree-huge": "GF(3^10000000) exceeds the size cap 6561",
    "phi-huge": "frobenius is not a permutation of 0..29999999",
    "gerardin-torus-over-the-cap": "p^n = 3^800 exceeds the model cap 32767",
    "gerardin-torus-over-the-sample-cap": "|T| = 262144 exceeds the sample cap 10000",
    "action-over-the-root-cap": "2000 roots exceed the action cap 256",
}


@pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
def test_malformed_payload_is_a_validation_error(case, tmp_path, capsys):
    scn = BAD_PAYLOADS[case]()
    f = tmp_path / "bad.scn"
    f.write_text(json.dumps({"scenarios": [scn]}))
    assert run_cli(["run", f, "--report", tmp_path / "r.json"]) == 3
    lines = capsys.readouterr().err.splitlines()
    prefix = "validation error: %s: %s" % (scn["id"], BAD_PAYLOAD_MESSAGES.get(case, ""))
    assert any(line.startswith(prefix) for line in lines), lines
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("case", ["lattice-check-theta-above-the-rank-cap", "datum-theta-above-the-rank-cap"])
def test_theta_above_the_rank_cap_is_refused_at_once(case, tmp_path, capsys):
    # refused before the first of the 10,000 powers: well inside 1 s
    start = time.perf_counter()
    code, err = _run_one_scenario(BAD_PAYLOADS[case](), tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "rank 40 is above the cap" in err


@pytest.mark.parametrize("case", ["C-field-degree-huge", "phi-huge", "gerardin-torus-over-the-cap",
                                  "gerardin-torus-over-the-sample-cap", "action-over-the-root-cap",
                                  "twisted-trace-p-huge-composite", "weil-verify-pairs-above-the-sample-cap",
                                  "weil-verify-words-above-the-sample-cap", "twisted-trace-trials-above-the-sample-cap",
                                  "lattice-check-pi0-trials-above-the-sample-cap"])
def test_a_size_above_its_cap_is_refused_at_once(case, tmp_path, capsys):
    # checked only after the work they bound, the first three sizes took
    # 2.3-4.6 s and up to 1.2 GB to refuse (whole CLI run, 2-vCPU x86-64 VM);
    # unchecked, 10^8 twisted-trace trials ran past an 8 s timeout, the huge
    # composite p spent more than 5 s in trial division, the 4^9-element torus
    # ran past a 20 s timeout, and the 2,000-root action took 17.6 s
    start = time.perf_counter()
    code, err = _run_one_scenario(BAD_PAYLOADS[case](), tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert BAD_PAYLOAD_MESSAGES[case] in err


def test_torus_over_the_sample_cap_builds_no_field_block(tmp_path, capsys, monkeypatch):
    # |T| is read off the factors: the refusal comes before the torus's
    # space, and so before any of its field blocks, is built
    def refuse(*args):
        raise AssertionError("field block built")

    monkeypatch.setattr(sym, "field_block", refuse)
    code, err = _run_one_scenario(BAD_PAYLOADS["gerardin-torus-over-the-sample-cap"](), tmp_path, capsys)
    assert code == 3
    assert BAD_PAYLOAD_MESSAGES["gerardin-torus-over-the-sample-cap"] in err


def test_group_above_the_enumeration_cap_is_refused_at_once(tmp_path, capsys):
    # within the model cap, but Sp_2(F_41), the next group past the
    # enumeration cap, has 68880 elements to draw from; refused before any
    # Weil model is built
    case = "twisted-trace-group-over-the-enumeration-cap"
    start = time.perf_counter()
    code, err = _run_one_scenario(BAD_PAYLOADS[case](), tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert BAD_PAYLOAD_MESSAGES[case] in err


def test_root_datum_command_refuses_a_theta_above_the_rank_cap(tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({"rank": 40, "roots": [], "coroots": [], "theta": _cycles_matrix(CAP_CYCLES)}))
    start = time.perf_counter()
    assert run_cli(["root-datum", f]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("validation error: order of a 40x40 matrix: rank 40 is above the cap 6")


@pytest.mark.parametrize("p,groups", [(3, [1] * 9), (7, [1] * 5)])
def test_twisted_trace_with_many_groups_within_the_cap_passes(p, groups, tmp_path, capsys):
    # |value| is at most p^sum(groups) <= MODEL_DIM_CAP, so the error stays far below the tolerance
    assert p ** sum(groups) <= weil.MODEL_DIM_CAP
    code, err = _run_one_scenario({"id": "t", "kind": "twisted-trace",
                                   "payload": {"p": p, "groups": groups, "trials": 3}}, tmp_path, capsys)
    assert code == 0, err


@pytest.mark.parametrize("tol", ["abc", "inf", "nan", "-1", "-1e-9"])
def test_bad_tolerance_option_rejected_at_parse_time(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", SCN / "sl2_f5.scn", "--tolerance=%s" % tol])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


def test_zero_tolerance_accepted(tmp_path):
    # the split-torus rows of sl2_f5 agree exactly, so a zero bound passes
    doc = json.loads((SCN / "sl2_f5.scn").read_text())
    scn = dict(doc["scenarios"][0], tolerance="0")
    f = tmp_path / "tol.scn"
    f.write_text(json.dumps({"scenarios": [scn]}))
    assert run_cli(["run", f, "--report", tmp_path / "r.json", "--tolerance", 0]) == 0


@pytest.mark.parametrize("args", [
    ["selfcheck", "--seed", 1],
    ["selfcheck", "--jobs", 2],
    ["selfcheck", "--tolerance", 1e-3],
    ["tabulate-ramified", "--report", "x"],
    ["tabulate-ramified", "--out-of-cap", "3^9"],
    ["root-datum", "A2.flip", "--format", "csv"],
])
def test_subcommands_refuse_options_they_do_not_read(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_summary_reports_measured_wall_time(tmp_path, monkeypatch, capsys):
    # cmd_run reads the clock once before and once after the scenarios run
    clock = iter([10.0, 12.5])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(time=lambda: next(clock)))
    assert run_cli(["run", SCN / "sign_f3.scn", "--report", tmp_path / "r.json", "--jobs", 2]) == 0
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    assert capsys.readouterr().err.splitlines()[-1] == "%d rows, 0 failures, 2.50s" % len(rows)


def test_run_starts_no_thread(tmp_path, monkeypatch):
    # --jobs is accepted and changes nothing: the scenarios run on this thread
    ref = tmp_path / "jobs1.json"
    assert run_cli(["run", SCN / "sign_f3.scn", "--report", ref, "--jobs", 1]) == 0

    def refuse(thread):
        raise AssertionError("weilchar run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "jobs4.json"
    assert run_cli(["run", SCN / "sign_f3.scn", "--report", out, "--jobs", 4]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_first_failing_scenario_ends_the_run(tmp_path, monkeypatch, capsys):
    # file order: the second scenario's refusal is the message, and the
    # third scenario never runs
    ran = []

    def recording(run):
        def wrapped(sid, payload, tol, seed):
            ran.append(sid)
            return run(sid, payload, tol, seed)
        return wrapped

    monkeypatch.setattr(cli, "RUNNERS", {kind: recording(run) for kind, run in cli.RUNNERS.items()})
    f = tmp_path / "three.scn"
    f.write_text(json.dumps({"scenarios": [
        {"id": "first", "kind": "root-datum", "payload": {"name": "A2"}},
        {"id": "second", "kind": "root-datum", "payload": {"name": "nope"}},
        {"id": "third", "kind": "root-datum", "payload": {"name": "B2"}},
    ]}))
    assert run_cli(["run", f, "--report", tmp_path / "r.json", "--jobs", 4]) == 3
    assert capsys.readouterr().err.startswith("validation error: second: unknown catalogue datum 'nope'")
    assert ran == ["first", "second"]
    assert not (tmp_path / "r.json").exists()


def test_cli_import_loads_no_thread_pool():
    # a fresh interpreter: importing weilchar.cli pulls in neither
    # concurrent.futures nor logging, a few ms of every process's set-up
    code = ("import sys; sys.path.insert(0, %r); import weilchar.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))" % str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_selfcheck_filter_matching_no_check_is_refused(tmp_path, capsys):
    # zero rows and zero failures would read as a pass
    assert run_cli(["selfcheck", "--filter", "nosuchcheck", "--report", tmp_path / "r.json"]) == 2
    assert "--filter 'nosuchcheck' matches no check" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_chain_over_the_model_cap_is_refused_at_once(tmp_path):
    # a 3^20-point chain model would need hundreds of GB; the cap refuses it
    # before any table is built
    f = tmp_path / "big.scn"
    f.write_text(json.dumps({"scenarios": [{"id": "t", "kind": "twisted-trace", "payload": {"p": 3, "groups": [20]}}]}))
    start = time.perf_counter()
    assert run_cli(["run", f]) == 3
    assert time.perf_counter() - start < 1.0


def test_root_datum_command(capsys):
    assert run_cli(["root-datum", "A2.flip"]) == 0
    out = capsys.readouterr().out
    assert "type 3" in out and "type 2" in out


def test_restricted_count_row_counts_theta_orbits_apart_from_restrict_roots(monkeypatch):
    orig = lattice.restrict_roots
    monkeypatch.setattr(lattice, "restrict_roots", lambda d: dataclasses.replace(orig(d), restricted=orig(d).restricted[1:]))
    rows = cli.run_root_datum("r", {"name": "A2.flip"}, 0.0, 0)
    assert [(r.quantity, r.formula, r.oracle, r.passed) for r in rows] == [("restricted count", 3, 4, False)]


@pytest.mark.parametrize("doc,code", [
    ({"rank": 1, "roots": [[-1], [1]], "coroots": [[-2], [2]], "theta": [[1]]}, 0),
    ({"rank": [1], "roots": [[-1], [1]], "coroots": [[-2], [2]], "theta": [[1]]}, 3),
    ({"rank": 1, "roots": 5, "coroots": [[-2], [2]], "theta": [[1]]}, 3),
    ({"rank": 1, "roots": [[-1], [1]], "coroots": [[-2], [2]]}, 3),
    ([1, 2], 3),
    ({"rank": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]], "theta": [[1]]}, 3),  # theta below the rank
])
def test_root_datum_command_reads_a_datum_file(doc, code, tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps(doc))
    assert run_cli(["root-datum", f]) == code
    captured = capsys.readouterr()
    assert ("rank 1, 2 roots" in captured.out) if code == 0 else captured.err.startswith("validation error: ")


def test_tabulate_ramified_deterministic(capsys):
    assert run_cli(["tabulate-ramified"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["tabulate-ramified"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "oracle-computed" in first


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


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_weil_verify_decodes_the_pairs_a_list_of_elements_gives(p, n):
    # the same rng calls, indexing every element of H(V) in a list and
    # decoding the positions, draw the same (a, b) pairs
    space = sym.standard_polarized_space(p, n)
    hs = list(itertools.product(itertools.product(range(p), repeat=2 * n), range(p)))
    listed, decoded = np.random.default_rng(7), np.random.default_rng(7)
    old = [h for _ in range(40) for h in (hs[listed.integers(len(hs))], hs[listed.integers(len(hs))])]
    drawn = [(decoded.integers(len(hs)), decoded.integers(len(hs))) for _ in range(40)]
    vs, zs = sym.heis_decode(space, drawn)
    assert old == [(tuple(v), z) for v, z in zip(vs.reshape(-1, 2 * n).tolist(), zs.ravel().tolist())]


@pytest.mark.parametrize("fault", ["rho-half-phase", "rho-columns"], ids=["half-form phase dropped", "columns shifted"])
def test_rho_faults_turn_weil_verify_red(fault, tmp_path):
    f = tmp_path / "rho.scn"
    f.write_text(json.dumps({"scenarios": [{
        "id": "w", "kind": "weil-verify", "payload": {"p": 5, "n": 1, "pairs": 40, "words": 3},
    }]}))
    report = tmp_path / "rep.json"
    with checks.FAULTS[fault]():
        assert run_cli(["run", f, "--seed", 7, "--report", report]) == 1
    failed = {r["quantity"] for r in json.loads(report.read_text())["rows"] if not r["pass"]}
    assert failed == {"rho homomorphism (sampled)"}


def test_weil_verify_in_chunks_of_pairs_gives_the_same_report(tmp_path, monkeypatch):
    # 40 pairs in chunks of 3 (the last one short) against one chunk
    f = tmp_path / "w.scn"
    f.write_text(json.dumps({"scenarios": [{
        "id": "w", "kind": "weil-verify", "payload": {"p": 5, "n": 1, "pairs": 40, "words": 3},
    }]}))
    whole, chunked = tmp_path / "whole.json", tmp_path / "chunked.json"
    assert run_cli(["run", f, "--seed", 7, "--report", whole]) == 0
    monkeypatch.setattr(weil, "GATHER_CHUNK_ENTRIES", 3 * 5 * 2)
    assert run_cli(["run", f, "--seed", 7, "--report", chunked]) == 0
    assert chunked.read_bytes() == whole.read_bytes()
