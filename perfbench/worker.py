"""One round of a benchmark workload, in a fresh process.

A round is set-up (import plus input generation from the seed) followed by
the timed section (every item of the workload, each checked).  Every round
starts with cold lru caches and an empty ramified-constant cache, as a CLI
user does.  ``run.py`` starts the rounds; by hand:

    python3 perfbench/worker.py --workload sweep-small --seed 1 --tmp DIR

prints one JSON object on its last line of standard output.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def blas_info() -> dict:
    """numpy, its BLAS library and the thread count BLAS runs with."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": "%s %s" % (blas.get("name"), blas.get("version")), "blas_threads": threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True, help="directory for this round's temporary files")
    ap.add_argument("--trace", metavar="SPANS_FILE", default=None, help="trace the round; write spans here")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)
    # one CPU for the whole round: the two threads of the --jobs 2 pool then
    # take turns on it instead of handing the interpreter lock across CPUs,
    # whose wake-ups on a shared host made scenario-batch times spread by
    # 0.18 of their median against 0.05 pinned; the sweeps spread the same
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import workloads
    from probe import REF_S, Pacer, setup_probe
    from tracer import Tracer, round_metrics

    tracer = Tracer() if args.trace else None
    workdir = tempfile.mkdtemp(prefix="round-", dir=args.tmp)
    result = {}
    try:
        # the host-speed probe runs from here to the end of the round; import
        # time is scaled by the first probes, the rest stretch by stretch
        import_s = time.perf_counter() - T_START
        probe_s = setup_probe()
        # a traced round is not paced: probes would land in the spans
        pacer = Pacer(probe_s) if not tracer else None
        item_span = tracer.item_span if tracer else contextlib.nullcontext

        def probe_cpu_s():
            return pacer.probe_cpu_s if pacer else 0.0

        with tracer if tracer else contextlib.nullcontext(), pacer or contextlib.nullcontext():
            t0 = time.perf_counter()
            with tracer.span("setup") if tracer else contextlib.nullcontext():
                inputs = workloads.make_inputs(args.workload, args.seed, workdir)
            c0, t1 = time.process_time() - probe_cpu_s(), time.perf_counter()
            if not args.setup_only:
                outcome = workloads.run_items(args.workload, inputs, item_span)
                c2, t2 = time.process_time() - probe_cpu_s(), time.perf_counter()
        smoothed = pacer.smoothed() if pacer else None
        gen_s, gen_norm_s = pacer.span(t0, t1, smoothed) if pacer else (t1 - t0,) * 2
        result["setup_s"] = import_s + gen_s
        result["setup_norm_s"] = import_s * REF_S / probe_s + gen_norm_s
        if not args.setup_only:
            result["cpu_s"] = c2 - c0
            if pacer:
                result["wall_s"], result["wall_norm_s"] = pacer.span(t1, t2, smoothed)
                result["probes"] = [m[2] for m in pacer.marks]
                times = [pacer.span(it.start, it.start + it.ms / 1e3, smoothed) for it in outcome.items]
            else:
                result["wall_s"] = t2 - t1
                times = [(it.ms / 1e3,) * 2 for it in outcome.items]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = blas_info()
        if not args.setup_only:
            # [id, ms with probe time left out, ok, error, detail, normalised ms]
            result["items"] = [[it.id, 1e3 * raw, it.ok, it.err, it.detail, 1e3 * norm]
                               for it, (raw, norm) in zip(outcome.items, times)]
            result["gate_notes"] = outcome.gate_notes
            result["digest"] = outcome.digest()
            if tracer:
                check_names = [name for name, _ in workloads.checks.CHECKS]
                entries = len(workloads.signcalc.ramified_cache_snapshot())
                result["layers"] = round_metrics(tracer, outcome.items, check_names, entries)
                tracer.write_spans(args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
