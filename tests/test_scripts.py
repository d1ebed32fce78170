"""Smoke tests: the bundled scripts run end to end and print their tables."""

import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from weilchar import checks, cli, signcalc, weil

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_sign_survey_script():
    lines = run_script("sign_survey.py", "2", "4")
    assert lines[0].split() == ["family", "n", "worst", "err", "signs", "seen"]
    families = lines[1:-1]
    assert len(families) == 16
    assert {line.split()[0] for line in families} == set(signcalc.BRANCHES)
    total = 0
    for line in families:
        n, worst, signs = line[30:].split(None, 2)
        total += int(n)
        assert float(worst) <= 1e-8
        assert signs in ("[-1]", "[1]", "[-1, 1]")
    assert lines[-1].startswith("%d scenarios in " % total)


def test_character_table_script():
    lines = run_script("character_table.py", "3")
    assert lines[0].startswith("Sp_2(F_3): ")
    classes = int(lines[0].split()[1])
    assert classes == 3  # Sp_2(F_p) has p semisimple classes
    assert len(lines) == 2 + classes


def test_character_table_exits_on_a_mismatch(monkeypatch, capsys):
    # a formula that misses the oracle ends the run nonzero, naming the
    # class, by a check that python -O keeps
    spec = importlib.util.spec_from_file_location("character_table", ROOT / "scripts" / "character_table.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod.gerardin, "weil_char", lambda g: 0.5)
    with pytest.raises(SystemExit) as exc:
        mod.main(3)
    first = capsys.readouterr().out.splitlines()[2]
    assert str(exc.value.code).startswith("class %s: the formula 0.5 is not the oracle trace" % first.split("  ")[0])


def test_ci_workflow_parses():
    import yaml  # the test extra requires PyYAML: missing, this test fails rather than skips

    doc = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step.get("run", "") for job in doc["jobs"].values() for step in job["steps"]]
    # pyproject.toml is the one dependency list
    assert 'python -m pip install -e ".[test]"' in steps
    [tier1] = [s for s in steps if "python -m pytest -q --continue-on-collection-errors" in s]
    assert "--durations=15" in tier1.split()  # every log names its slowest tests
    # the benchmark's own suite runs last: a red step skips every step after it
    assert "python -m pytest perfbench/tests -q" in steps[-1]
    assert not any("python -m pytest perfbench/tests -q" in s for s in steps[:-1])
    # two selfcheck processes must write the same report bytes
    [self_step] = [s for s in steps if "python -m weilchar.cli selfcheck --report" in s]
    assert self_step.count("python -m weilchar.cli selfcheck --report") == 2 and "cmp " in self_step
    # and with asserts stripped (-O), the same selfcheck report and the same
    # report of every bundled scenario file as at hash seed 0
    assert 'PYTHONHASHSEED=0 python -O -m weilchar.cli selfcheck --report "$RUNNER_TEMP/selfcheck-o.json"' in self_step
    assert 'cmp "$RUNNER_TEMP/selfcheck-a.json" "$RUNNER_TEMP/selfcheck-o.json"' in self_step
    assert ('PYTHONHASHSEED=0 python -m weilchar.cli run "scenarios/$scn" --seed 7 '
            '--report "$RUNNER_TEMP/$scn-seed0.json"') in self_step
    assert ('PYTHONHASHSEED=0 python -O -m weilchar.cli run "scenarios/$scn" --seed 7 '
            '--report "$RUNNER_TEMP/$scn-o.json"') in self_step
    assert 'cmp "$RUNNER_TEMP/$scn-seed0.json" "$RUNNER_TEMP/$scn-o.json"' in self_step
    assert all(f.name in self_step for f in (ROOT / "scenarios").glob("*.scn"))
    # and two runs with each of the sgn fault, the faults on the word
    # model's two stack seams, the lattice layer's fault and the torus
    # element's, each exiting 1, the same report bytes
    assert "for fault in sgn levi-sign off-sample-trace restrict-merge split-piece-symmetric; do" in self_step
    assert ('PYTHONHASHSEED=$seed python -m weilchar.cli selfcheck --fault $fault '
            '--report "$RUNNER_TEMP/fault-$fault-$seed.json"') in self_step
    assert "for seed in 0 1; do" in self_step and 'test "$status" -eq 1' in self_step
    assert 'cmp "$RUNNER_TEMP/fault-$fault-0.json" "$RUNNER_TEMP/fault-$fault-1.json"' in self_step
    # and every seeded fault, each in a fresh process, must exit 1
    [faults_step] = [s for s in steps if "checks.FAULTS" in s]
    assert 'for name in $(python -c "from weilchar import checks; print(*checks.FAULTS)"); do' in faults_step
    assert 'python -m weilchar.cli selfcheck --fault "$name" --report "$RUNNER_TEMP/red-$name.json"' in faults_step
    assert 'test "$status" -eq 1' in faults_step
    # with exactly the checks of its DETECTION record red
    assert "from test_faults import DETECTION" in faults_step and "for name, want in DETECTION.items():" in faults_step
    assert 'red-%s.json" % (sys.argv[1], name)' in faults_step and "red != want" in faults_step
    # and so must two runs of every bundled scenario file at a fixed seed
    [scn_step] = [s for s in steps if 'python -m weilchar.cli run "scenarios/$scn" --seed 7 --report' in s and s != self_step]
    assert scn_step.count("python -m weilchar.cli run") == 2 and "cmp " in scn_step
    assert all(f.name in scn_step for f in (ROOT / "scenarios").glob("*.scn"))
    # and a run of every bundled scenario file with --jobs 1 the same bytes
    # as a run with --jobs 4
    [jobs_step] = [s for s in steps if "--jobs 1" in s]
    assert 'python -m weilchar.cli run "scenarios/$scn" --seed 7 --jobs 1 --report' in jobs_step
    assert 'python -m weilchar.cli run "scenarios/$scn" --seed 7 --jobs 4 --report' in jobs_step
    assert all(f.name in jobs_step for f in (ROOT / "scenarios").glob("*.scn"))
    assert "cmp " in jobs_step
    # and two tabulate-ramified processes the same table
    assert any(s.count("python -m weilchar.cli tabulate-ramified >") == 2 and "cmp " in s for s in steps)
    # and two root-datum processes the same report for every catalogue name
    from weilchar import lattice

    [datum_step] = [s for s in steps if "python -m weilchar.cli root-datum" in s]
    assert datum_step.count('python -m weilchar.cli root-datum "$name"') == 2 and "cmp " in datum_step
    assert datum_step.split("for name in ")[1].split("; do")[0].split() == list(lattice.catalogue())
    # and two sign surveys the same rows, less the timing line, at eta_cap
    # 16 and at 300
    [survey_step] = [s for s in steps if "scripts/sign_survey.py" in s]
    assert survey_step.count("python scripts/sign_survey.py 4 16 >") == 2
    assert survey_step.count("python scripts/sign_survey.py 4 300 >") == 2
    assert survey_step.count("head -n -1") == 4 and survey_step.count("cmp ") == 2
    # each two-process comparison runs its sides with hash seeds 0 and 1, so
    # a red run can be replayed
    ramified_step = next(s for s in steps if "tabulate-ramified" in s)
    for step in (self_step, scn_step, ramified_step, survey_step, datum_step):
        assert "PYTHONHASHSEED=0 python" in step and "PYTHONHASHSEED=1 python" in step
    # every job runs on the lowest Python that pyproject.toml declares
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    for job in doc["jobs"].values():
        assert floor in job["strategy"]["matrix"]["python-version"]
        setup = next(step for step in job["steps"] if step.get("uses", "").startswith("actions/setup-python"))
        assert setup["with"]["python-version"] == "${{ matrix.python-version }}"


def _bench_module(name):
    """perfbench/<name>.py, loaded under a private name so that nothing
    named like it elsewhere on sys.path is shadowed."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_batch_weil_verify_draws_its_pairs_in_one_chunk():
    # the scenario-batch workload's weil-verify payloads draw all their pairs
    # in one GATHER_CHUNK_ENTRIES chunk, so the chunk size moves none of its work
    workloads = _bench_module("workloads")
    for i in range(len(workloads._WEIL_SHAPES)):
        pl = workloads._gen_weil_verify(None, None, i)
        assert pl["pairs"] * pl["p"] ** pl["n"] * 2 * pl["n"] <= weil.GATHER_CHUNK_ENTRIES


def test_benchmark_hooks_resolve(tmp_path):
    # the benchmark wraps weilchar names and builds its inputs through
    # weilchar; a rename that breaks either fails here, not only in a bench run
    tracer = _bench_module("tracer")
    workloads = _bench_module("workloads")
    real = signcalc.build_block, cli.RUNNERS["assemble"]
    tr = tracer.Tracer()
    tr.install()  # resolves every TARGETS entry, or restores and raises
    try:
        assert signcalc.build_block is not real[0] and signcalc.build_block.__wrapped__ is real[0]
        assert cli.RUNNERS["assemble"].__wrapped__ is real[1]
    finally:
        tr.restore()
    assert (signcalc.build_block, cli.RUNNERS["assemble"]) == real
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert names == ["sweep-small", "sweep-large", "selfcheck", "scenario-batch"]
    for name in names:
        workdir = tmp_path / name
        workdir.mkdir()
        workloads.make_inputs(name, 1, str(workdir))


def test_registry_times_script():
    out = json.loads("\n".join(run_script("registry_times.py", "1")))
    assert out["runs"] == 1
    assert list(out["checks"]) == [name for name, _ in checks.CHECKS] + ["registry"]
    for stats in out["checks"].values():
        assert stats["q1_s"] == stats["median_s"] == stats["q3_s"] >= 0


def test_registry_times_script_shows_a_failed_child(tmp_path):
    # a checkout whose weilchar cannot be imported: the script passes the
    # child's traceback on and exits nonzero
    (tmp_path / "weilchar").mkdir()
    (tmp_path / "weilchar" / "__init__.py").write_text("raise ImportError('weilchar is broken here')\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "registry_times.py"), "1"],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=600)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "ImportError: weilchar is broken here" in proc.stderr
    assert "the child process exited with status 1" in proc.stderr
    assert "CalledProcessError" not in proc.stderr
