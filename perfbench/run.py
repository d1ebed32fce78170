"""weilchar benchmark: one command for every workload.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 25 --trace 0

Runs --seconds // NOMINAL_ROUND_S rounds of the workload (see worker.py),
each in a fresh process, then prints the metrics by name
with their units, the machine fingerprint and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 every round is
run once untraced and once traced, and the metrics are the per-layer ones.
Run it from the root of a source checkout: it exits 2 without a result when
src/weilchar is not there.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("sweep-small", "sweep-large", "selfcheck", "scenario-batch")

# one BLAS thread on every commit: with the --jobs 2 pool of scenario-batch
# the program then runs at most nproc (2) threads of its own
BLAS_THREADS = 1
# a run makes seconds // NOMINAL_ROUND_S rounds (at least one), so the amount
# of work, and with it the tail percentile, does not depend on the speed of
# the commit measured; the values are round times on a 2-core x86-64 VM
NOMINAL_ROUND_S = {"sweep-small": 7.5, "sweep-large": 6.0, "selfcheck": 22.0, "scenario-batch": 3.0}
SLOW_STOP = 1.5  # start no round after SLOW_STOP * seconds, however few ran
MIN_SETUPS = 4  # set-up samples per untraced run, topped up with set-up-only rounds
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # items left above the tail percentile, per round

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "weilchar")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload: str, seed: int, start: float):
        self.workload = workload
        self.seed = seed
        self.start = start
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        self.traced_count = 0

    def round(self, trace: bool = False, setup_only: bool = False) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--tmp", TMP_DIR]
        if trace:
            self.traced_count += 1
            cmd += ["--trace", os.path.join(OUT_DIR, "spans-%s-s%d-r%d.jsonl" % (self.workload, self.seed, self.traced_count))]
        if setup_only:
            cmd.append("--setup-only")
        left = RUN_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError("out of time before a round could start")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
            raise BenchError("round exceeded the %.0f s run limit" % RUN_LIMIT_S) from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-3000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float], rounds: int) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND items of each round above it, over the items of all rounds
    (nearest rank); with rounds of TAIL_BEYOND items or fewer, at least
    TAIL_BEYOND items of the run.  A per-round count keeps the percentile
    the same for any number of rounds and stops a few stalled items of one
    round from setting it."""
    ordered = sorted(values)
    beyond = TAIL_BEYOND * rounds if len(ordered) > TAIL_BEYOND * rounds else TAIL_BEYOND
    rank = max(1, len(ordered) - beyond)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def measure(args) -> tuple[dict, dict]:
    start = time.perf_counter()
    runner = Runner(args.workload, args.seed, start)
    # a traced run is one untraced and one traced round
    rounds = 1 if args.trace else max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload]))
    plain, traced = [], []
    while len(plain) < rounds and (not plain or time.perf_counter() - start < SLOW_STOP * args.seconds):
        plain.append(runner.round())
        if args.trace:
            traced.append(runner.round(trace=True))
    # set-up samples as (raw, normalised) seconds
    setups = [(r["setup_s"], r["setup_norm_s"]) for r in plain]
    if not args.trace:
        while len(setups) < MIN_SETUPS:
            r = runner.round(setup_only=True)
            setups.append((r["setup_s"], r["setup_norm_s"]))

    notes = []
    items = [it for r in plain for it in r["items"]]
    for r in plain + traced:
        notes += r["gate_notes"]
    if len({r["digest"] for r in plain}) != 1:
        notes.append("rounds of one seed gave different outputs")
    outcome = [(it[0], it[2]) for it in plain[0]["items"]]
    for r in traced:
        if [(it[0], it[2]) for it in r["items"]] != outcome:
            notes.append("traced round gave other item outcomes than the untraced one")
    failed = sum(1 for it in items if not it[2])
    errs = [it[3] for it in items if it[3] is not None]
    walls = [r["wall_norm_s"] for r in plain]
    pct, tail_ms = tail([it[5] for it in items], len(plain))
    probes = [p for r in plain for p in r["probes"]]
    summary = {
        "rounds": len(plain),
        "items_per_round": len(plain[0]["items"]),
        "attempted": len(items),
        "failed": failed,
        "failed_items": [it for it in items if not it[2]][:5],
        "fail_ratio": failed / len(items),
        "worst_abs_error": max(errs) if errs else None,
        "tail_percentile": pct,
        "setup_samples": len(setups),
        "round_walls": walls,
        # the same statistics on times as measured, before normalisation
        "raw": {
            "setup_s": statistics.median(s[0] for s in setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "item_ms_p50": statistics.median(it[1] for it in items),
            "item_ms_tail": tail([it[1] for it in items], len(plain))[1],
        },
        "probe_ms": {"min": 1e3 * min(probes), "median": 1e3 * statistics.median(probes),
                     "max": 1e3 * max(probes), "count": len(probes)},
        "gate_notes": sorted(set(notes)),
        "env": plain[0]["env"],
    }
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["proc.cpu_per_wall"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in plain)
        # both sides as measured: the traced round is not paced
        layers["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                          / statistics.median(r["wall_s"] for r in plain))
        return summary, layers
    metrics = {
        "setup_s": statistics.median(s[1] for s in setups),
        "wall_s": statistics.median(walls),
        "item_ms_p50": statistics.median(it[5] for it in items),
        "item_ms_tail": tail_ms,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    return summary, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "weilchar", "__init__.py")):
        print("error: no weilchar source under %s; run from the root of a source checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from probe import REF_S  # noqa: E402
    from tracer import per_layer_spec  # noqa: E402  (needs no weilchar import)

    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    load_start = _loadavg()
    try:
        summary, metrics = measure(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    fingerprint = {
        "python": platform.python_version(),
        **summary.pop("env"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "machine": platform.machine(),
        "note": "page cache and lru caches are not dropped between runs; each round runs on the lowest allowed CPU",
    }
    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_spec([])}
        units.update((k, "s") for k in metrics if k.startswith("checks.") and k.endswith(".s"))
    else:
        units = dict(END_TO_END)
    print("workload %s  seed %d  rounds %d  items %d (%d per round)%s" % (
        args.workload, args.seed, summary["rounds"], summary["attempted"], summary["items_per_round"],
        "  (the selfcheck registry has fixed internal seeds: the seed does not apply)" if args.workload == "selfcheck" else ""))
    for name, value in metrics.items():
        extra = ""
        if name == "item_ms_tail":
            extra = "  (p%.1f of %d items)" % (summary["tail_percentile"], summary["attempted"])
        elif name == "setup_s":
            extra = "  (median of %d)" % summary["setup_samples"]
        if name in summary["raw"]:
            extra += "  (as measured: %.6g)" % summary["raw"][name]
        print("%-44s %14.6g %s%s" % (name, value, units[name], extra))
    probe = summary["probe_ms"]
    print("host-speed probe: %d probes, min %.3g / median %.3g / max %.3g ms; times above are scaled to %.3g ms"
          % (probe["count"], probe["min"], probe["median"], probe["max"], 1e3 * REF_S))
    worst = summary["worst_abs_error"]
    print("fail_ratio %.6g (%d of %d items failed)  worst |formula - oracle| %s" % (
        summary["fail_ratio"], summary["failed"], summary["attempted"], "n/a" if worst is None else "%.3g" % worst))
    for it in summary["failed_items"]:
        print("failed item: %s %s" % (it[0], it[4]))
    for note in summary["gate_notes"]:
        print("gate: %s" % note)
    print("fingerprint %s" % json.dumps(fingerprint, sort_keys=True))
    result = {
        "correct": summary["failed"] == 0 and not summary["gate_notes"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, "result-%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"result": result, "summary": summary, "fingerprint": fingerprint}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
