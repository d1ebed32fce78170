"""Tests of the benchmark itself: its correctness gate can fail, the seed
reaches only the input generators, and tracing changes no outcome.

    python3 -m pytest perfbench/tests -q
"""

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import probe  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from weilchar import checks, cli, ffield, signcalc  # noqa: E402


def fail_ratio(outcome) -> float:
    return sum(not it.ok for it in outcome.items) / len(outcome.items)


def sweep_subset(seed: int, n: int) -> workloads.SweepInputs:
    """The first n blocks of a sweep-small sample, with the coverage gate
    narrowed to their families."""
    blocks = workloads.sweep_inputs("sweep-small", seed).blocks[:n]
    return workloads.SweepInputs(blocks, {label for label, _ in blocks})


def batch_subset(seed: int, workdir: str, n: int) -> list[tuple[str, int]]:
    return workloads.batch_inputs(seed, workdir)[:n]


def file_texts(files: list[tuple[str, int]]) -> list[str]:
    texts = []
    for path, _ in files:
        with open(path) as fh:
            texts.append(fh.read())
    return texts


# ---------------------------------------------------------------------------
# the correctness gate goes red


def test_selfcheck_gate_fails_under_sgn_fault():
    sgn = ffield.sgn_mult
    out = workloads.run_selfcheck(fault="sgn")
    assert fail_ratio(out) > 0
    assert {it.id for it in out.items if not it.ok} >= {"ffield.sgn-mult"}
    assert ffield.sgn_mult is sgn
    assert [name for name, _ in checks.CHECKS] == [it.id for it in out.items]


def test_sweep_gate_fails_on_corrupted_oracle(monkeypatch):
    inputs = sweep_subset(5, 6)
    clean = workloads.run_sweep(inputs)
    assert fail_ratio(clean) == 0 and not clean.gate_notes

    real = workloads.oracle_trace
    calls = []

    def corrupted(bb):
        calls.append(bb)
        value = real(bb)
        return value + 1e-6 if len(calls) == 2 else value  # 100x criterion 05's tolerance

    monkeypatch.setattr(workloads, "oracle_trace", corrupted)
    out = workloads.run_sweep(inputs)
    assert fail_ratio(out) == pytest.approx(1 / 6)
    assert not out.items[1].ok and out.items[1].err > workloads.TOL


def test_sweep_gate_reports_missing_family():
    inputs = sweep_subset(5, 2)
    inputs.families = inputs.families | {"asym/asym p=7 d=1 f=1"}
    assert workloads.run_sweep(inputs).gate_notes


def test_batch_gate_fails_on_a_failing_scenario(tmp_path):
    path = tmp_path / "bad.scn"
    payload = {"matrices": [{"theta": [[-1]], "expect_torsion": [3]}]}  # the torsion is [2]
    path.write_text(json.dumps({"scenarios": [{"id": "x", "kind": "lattice-check", "payload": payload}]}))
    out = workloads.run_batch([(str(path), 0)])
    assert fail_ratio(out) == 1
    bad = tmp_path / "unparsable.scn"
    bad.write_text("{not json")
    out = workloads.run_batch([(str(bad), 0)])
    assert fail_ratio(out) == 1 and out.items[0].detail.startswith("RuntimeError('exit 2")


# ---------------------------------------------------------------------------
# the seed reaches the generators, and only them


def test_same_seed_same_inputs_and_outcomes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    batch_a, batch_b = batch_subset(7, str(a), 10), batch_subset(7, str(b), 10)
    assert file_texts(batch_a) == file_texts(batch_b)
    out_a, out_b = workloads.run_batch(batch_a), workloads.run_batch(batch_b)
    assert out_a.reports == out_b.reports and out_a.digest() == out_b.digest()

    sweep_a, sweep_b = workloads.sweep_inputs("sweep-small", 7), workloads.sweep_inputs("sweep-small", 7)
    run_a, run_b = workloads.run_sweep(sweep_a), workloads.run_sweep(sweep_b)
    assert [it.id for it in run_a.items] == [it.id for it in run_b.items]
    assert run_a.digest() == run_b.digest()


def test_other_seed_other_sample(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert file_texts(batch_subset(7, str(a), 10)) != file_texts(batch_subset(8, str(b), 10))
    for wl in ("sweep-small", "sweep-large"):
        ids_7 = [sc.eta_alpha for _, sc in workloads.sweep_inputs(wl, 7).blocks]
        ids_8 = [sc.eta_alpha for _, sc in workloads.sweep_inputs(wl, 8).blocks]
        assert len(ids_7) == len(ids_8) and ids_7 != ids_8


def test_sweep_strata_and_dimensions():
    small = workloads.sweep_inputs("sweep-small", 1)
    large = workloads.sweep_inputs("sweep-large", 1)
    assert {sc.classification for _, sc in small.blocks} == set(signcalc.BRANCHES)
    assert all(workloads.model_dim(sc) <= workloads.SMALL_DIM_CAP for _, sc in small.blocks)
    assert {label for label, _ in large.blocks} == {
        "asym/asym p=5 d=4 f=1", "asym/asym p=5 d=4 f=2", "asym/sym-ur p=5 f=2"}
    assert all(workloads.model_dim(sc) == workloads.LARGE_DIM for _, sc in large.blocks)


def test_batch_covers_every_kind(tmp_path):
    inputs = workloads.batch_inputs(3, str(tmp_path))
    kinds = set()
    for text in file_texts(inputs):
        kinds |= {scn["kind"] for scn in json.loads(text)["scenarios"]}
    assert kinds == set(cli.KINDS)


# ---------------------------------------------------------------------------
# tracing


def _bindings():
    """Every attribute of the weilchar modules and classes, and every entry
    of their module-level dicts, by identity."""
    seen = {}
    for name, mod in tr._modules().items():
        for key, val in vars(mod).items():
            seen[(name, key)] = id(val)
            if isinstance(val, dict):
                for k, v in val.items():
                    seen[(name, key, repr(k))] = id(v)
            if isinstance(val, type):
                for k, v in vars(val).items():
                    seen[(name, key, "." + k)] = id(v)
    return seen


def test_tracer_restores_and_keeps_outcomes(tmp_path):
    before = _bindings()
    batch = batch_subset(11, str(tmp_path), 8)
    sweep = sweep_subset(11, 12)
    plain = [workloads.run_batch(batch), workloads.run_sweep(sweep)]
    tracer = tr.Tracer()
    with tracer:
        assert cli.RUNNERS["gerardin"] is cli.run_gerardin and hasattr(cli.run_gerardin, "__wrapped__")
        traced = [workloads.run_batch(batch, tracer.item_span), workloads.run_sweep(sweep, tracer.item_span)]
    assert _bindings() == before
    for p, t in zip(plain, traced):
        assert [(it.id, it.ok) for it in p.items] == [(it.id, it.ok) for it in t.items]
        assert p.reports == t.reports

    items = traced[0].items + traced[1].items
    names = [name for name, _ in checks.CHECKS]
    metrics = tr.round_metrics(tracer, items, names, len(signcalc.ramified_cache_snapshot()))
    want = [name for name, _, _ in tr.per_layer_spec(names) if name not in {n for n, _, _ in tr.RUN_LEVEL}]
    assert list(metrics) == want
    assert metrics["cli.run_gerardin.calls"] > 0 and metrics["signcalc.build_block.calls"] > 0
    assert 0 <= metrics["trace.unattributed_ratio"] < 1
    spans = [s for s in tracer.spans if s[0] == "item"]
    assert len(spans) == len(items) and all(s[2] >= s[1] for s in spans)


def test_pool_thread_calls_attribute_to_the_item():
    from weilchar import lattice

    tracer = tr.Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer, tracer.item_span("x"):
            threads = [threading.Thread(target=lambda: [lattice.smith_normal_form([[2, 4], [6, 8]]) for _ in range(200)])
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    snf = [s for s in tracer.spans if s[0] == "lattice.smith_normal_form"]
    assert len(snf) == 800 and all(s[2] >= s[1] > 0 and s[4] == "x" for s in snf)
    assert tracer.merged()[0]["lattice.smith_normal_form"][0] == 800


def test_self_time_excludes_wrapped_children():
    tracer = tr.Tracer()
    with tracer:
        with tracer.item_span("x"):
            k = ffield.field(5, 2)
            ffield.trace_to(k.gen() * k.gen(), ffield.field(5, 1))
    stats, edges = tracer.merged()
    calls, total, self_s = stats["ffield.trace_to"]
    assert calls == 1 and 0 <= self_s <= total
    assert edges[("item", "ffield.mul")] == 1
    item_self = tracer.spans[0][5]
    assert item_self <= tracer.spans[0][2] - tracer.spans[0][1] - total


# ---------------------------------------------------------------------------
# host-speed normalisation


def test_pacer_scales_each_stretch_by_its_probes(monkeypatch):
    ref = probe.REF_S
    pacer = probe.Pacer(ref)
    # probes at [0, 1], [2, 2.5] and [4, 4.1] taking ref, ref and 2 * ref
    pacer.marks = [(0.0, 1.0, ref), (2.0, 2.5, ref), (4.0, 4.1, 2 * ref)]
    monkeypatch.setattr(probe, "SMOOTH", 0)
    assert pacer.span(1.0, 4.0) == pytest.approx((2.5, 1.0 + 1.5 * 2 / 3))
    # an item from 1.5 to 3.0 has the probe at [2, 2.5] inside it
    assert pacer.span(1.5, 3.0) == pytest.approx((1.0, 0.5 + 0.5 * 2 / 3))
    assert pacer.span(4.1, 5.0) == (0.0, 0.0)
    # smoothed, one slow probe among steady ones scales nothing
    pacer.marks = [(0.0, 1.0, ref), (2.0, 2.5, ref), (3.0, 3.1, 2 * ref), (4.0, 4.1, ref), (5.0, 5.1, ref)]
    monkeypatch.setattr(probe, "SMOOTH", 1)
    assert pacer.span(1.0, 5.0) == pytest.approx((3.3, 3.3))


def test_pacer_probes_while_items_run_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    # about 2 s of items, so that several probes fall inside them
    sweep = sweep_subset(3, 200)
    plain = workloads.run_sweep(sweep)
    with probe.Pacer(probe.setup_probe()) as pacer:
        paced = workloads.run_sweep(sweep)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert [(it.id, it.ok) for it in paced.items] == [(it.id, it.ok) for it in plain.items]
    assert len(pacer.marks) > 4 and all(m[2] > 0 for m in pacer.marks)
    raw, norm = pacer.span(pacer.marks[0][1], pacer.marks[-1][0])
    items = [pacer.span(it.start, it.start + it.ms / 1e3) for it in paced.items]
    assert 0 < sum(r for r, _ in items) <= raw and norm > 0
    # probe time is left out of an item's time, never added to it
    assert all(r <= it.ms / 1e3 + 1e-9 for (r, _), it in zip(items, paced.items))


def test_probe_checks_its_own_result():
    for work, warm, expect in probe.WORK:
        assert work() == expect and work(warm) != expect


# ---------------------------------------------------------------------------
# the benchmark definition


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    names = [name for name, _ in checks.CHECKS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tr.per_layer_spec(names)


def test_tail_leaves_ten_items_per_round_above():
    values = [(7 * i) % 144 for i in range(144)]  # 0..143, shuffled
    pct, value = run.tail(values, 3)
    assert pct == pytest.approx(100 * 114 / 144)
    assert sum(v > value for v in values) == 3 * run.TAIL_BEYOND
    pct, value = run.tail(values[:18], 3)  # rounds of 6 items: 10 items of the run
    assert sum(v > value for v in values[:18]) == run.TAIL_BEYOND


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "1",
                           "--seconds", "5", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not glob.glob(str(tmp_path / ".perfbench_*"))
