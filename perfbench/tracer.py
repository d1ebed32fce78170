"""Tracing wrappers for the traced benchmark run.

``Tracer.install()`` swaps the public functions listed in ``TARGETS`` for
timing wrappers by reassigning module and class attributes (and the values
of module-level dicts such as ``cli.RUNNERS`` that hold the same object);
``restore()`` puts every original back.  Nothing in the library changes.

Every wrapped call is a frame for self-time accounting: a frame's self time
is its duration minus the time its wrapped children cover.  Span records
(name, start, end, parent, item id) are kept for items, for the set-up phase
and for the wrapped calls made directly inside them; deeper calls, and all
calls to the hot primitives, only add to per-name counters.  Each thread
keeps its own stack and counters, so the --jobs pool of ``weilchar run``
needs no lock on the hot path.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import threading
import time
from collections import Counter

perf_counter = time.perf_counter

NORMAL, TRANSPARENT, GENERATOR = "normal", "transparent", "generator"

# (module, attribute path, metric name, kind); kind TRANSPARENT counts calls
# and parent edges but hands its children's time to its own parent
TARGETS = (
    ("ffield", "FieldElem.__mul__", "ffield.mul", NORMAL),
    ("ffield", "FieldElem.frobenius", "ffield.frobenius", NORMAL),
    ("ffield", "trace_to", "ffield.trace_to", NORMAL),
    ("ffield", "sgn_mult", "ffield.sgn_mult", NORMAL),
    ("modp", "det", "modp.det", NORMAL),
    ("modp", "mat_inv", "modp.mat_inv", NORMAL),
    ("modp", "rref", "modp.rref", NORMAL),
    ("symplectic", "sp_elements", "symplectic.sp_elements", NORMAL),
    ("symplectic", "conjugate_in_sp", "symplectic.conjugate_in_sp", NORMAL),
    ("symplectic", "eigen_multiset", "symplectic.eigen_multiset", NORMAL),
    ("weil", "WeilModel.__init__", "weil.WeilModel.init", NORMAL),
    ("weil", "WeilModel.trace_omega", "weil.trace_omega", NORMAL),
    ("weil", "WeilModel.omega", "weil.omega", TRANSPARENT),
    ("weil", "WeilModel.omega_word", "weil.omega_word", NORMAL),
    ("weil", "WeilModel.build_group_model", "weil.build_group_model", NORMAL),
    ("weil", "WeilModel.rho", "weil.rho", NORMAL),
    ("weil", "schur_intertwiner", "weil.schur_intertwiner", NORMAL),
    ("weil", "block_twist", "weil.block_twist", NORMAL),
    ("weil", "twisted_trace", "weil.twisted_trace", NORMAL),
    ("gerardin", "char_semisimple", "gerardin.char_semisimple", NORMAL),
    ("gerardin", "char_polarized", "gerardin.char_polarized", NORMAL),
    ("gerardin", "char_no_fixed_point", "gerardin.char_no_fixed_point", NORMAL),
    ("gerardin", "char_fixed_line", "gerardin.char_fixed_line", NORMAL),
    ("signcalc", "build_block", "signcalc.build_block", NORMAL),
    ("signcalc", "block_sign_formula", "signcalc.block_sign_formula", NORMAL),
    ("signcalc", "torus_algorithm", "signcalc.torus_algorithm", NORMAL),
    ("signcalc", "assemble_product", "signcalc.assemble_product", NORMAL),
    ("signcalc", "full_space_oracle", "signcalc.full_space_oracle", NORMAL),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form", NORMAL),
    ("lattice", "restrict_roots", "lattice.restrict_roots", NORMAL),
    ("checks", "sign_branch_scenarios", "checks.sign_branch_scenarios", GENERATOR),
    ("cli", "cmd_run", "cli.cmd_run", NORMAL),
    ("cli", "render_report", "cli.render_report", NORMAL),
    ("cli", "run_gerardin", "cli.run_gerardin", NORMAL),
    ("cli", "run_weil_verify", "cli.run_weil_verify", NORMAL),
    ("cli", "run_twisted_trace", "cli.run_twisted_trace", NORMAL),
    ("cli", "run_sign_block", "cli.run_sign_block", NORMAL),
    ("cli", "run_assemble", "cli.run_assemble", NORMAL),
)
# hot primitives: counters only, never a span record
HOT_LAYERS = ("ffield.", "modp.")
# per-call sub-keys: model dimension of a trace, prime of a group model
SPLITS = {
    "weil.trace_omega": lambda args: "weil.trace_omega.d%d" % args[0].dim,
    "weil.build_group_model": lambda args: "weil.build_group_model.p%d" % args[0].p,
}
TRACE_DIMS = (3, 5, 9, 25, 27, 81, 125, 625)
GROUP_PRIMES = (3, 5, 7)
CACHED = {"ffield.field": ("ffield", "field"), "symplectic.sp_elements": ("symplectic", "sp_elements")}
SELF_ONLY = ("cli.cmd_run", "checks.sign_branch_scenarios")
# measured by run.py on the untraced rounds of a traced run
RUN_LEVEL = (
    ("proc.cpu_s", "s", "lower"),
    ("proc.cpu_per_wall", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_spec(check_names) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for _, _, name, kind in TARGETS:
        if kind == TRANSPARENT:
            continue
        if name not in SELF_ONLY:
            spec.append((name + ".calls", "count", "lower"))
        spec.append((name + ".self_s", "s", "lower"))
    spec += [(name + ".cache_hit_ratio", "ratio", "higher") for name in CACHED]
    spec.append(("weil.omega.group_hit_ratio", "ratio", "higher"))
    spec += [("weil.trace_omega.d%d.ms_mean" % d, "ms", "lower") for d in TRACE_DIMS]
    spec += [("weil.build_group_model.p%d.s" % p, "s", "lower") for p in GROUP_PRIMES]
    spec.append(("signcalc.build_block.calls_per_item", "ratio", "lower"))
    spec.append(("signcalc.ramified_cache.entries", "count", "lower"))
    spec += [("checks.%s.s" % name, "s", "lower") for name in check_names]
    spec += list(RUN_LEVEL)
    spec.append(("trace.unattributed_ratio", "ratio", "lower"))
    return spec


def _modules():
    return {name: importlib.import_module("weilchar." + name) for name in
            ("ffield", "modp", "lattice", "symplectic", "weil", "gerardin", "signcalc", "checks", "cli")}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple[dict, Counter]] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.spans: list[list] = []  # [name, start, end, parent span index, item id, self_s]
        self.item: tuple[int, str] | None = None  # (span index, id) of the running item
        self._cache_base: dict[str, tuple[int, int]] = {}

    # -- per-thread state -------------------------------------------------

    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.stats, loc.edges
        except AttributeError:
            loc.stack, loc.stats, loc.edges = [], {}, Counter()
            with self._lock:
                self._per_thread.append((loc.stats, loc.edges))
            return loc.stack, loc.stats, loc.edges

    def _record(self, name: str, parent: int | None, item_id: str | None) -> int:
        with self._lock:  # the --jobs pool threads record spans too
            self.spans.append([name, 0.0, 0.0, parent, item_id, 0.0])
            return len(self.spans) - 1

    def _enter(self, name: str, kind: str, explicit: bool = False, item_id: str | None = None):
        stack, stats, edges = self._state()
        parent = stack[-1] if stack else None
        edges[(parent[0] if parent else None, name)] += 1
        rec = None
        if explicit:
            anchor = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            rec = self._record(name, anchor, item_id)
        elif kind == NORMAL and not name.startswith(HOT_LAYERS):
            if parent is not None and parent[4]:  # first wrapped call inside an item or phase
                rec = self._record(name, parent[3], self.spans[parent[3]][4])
            elif parent is None and self.item is not None:  # a --jobs pool thread inside an item
                rec = self._record(name, self.item[0], self.item[1])
        frame = [name, perf_counter(), 0.0, rec, explicit, kind]
        stack.append(frame)
        return frame

    def _exit(self, frame) -> float:
        t1 = perf_counter()
        stack, stats, _ = self._state()
        stack.pop()
        name, t0, covered, rec, _, kind = frame
        d = t1 - t0
        s = stats.get(name)
        if s is None:
            s = stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        if kind == TRANSPARENT:
            if stack:
                stack[-1][2] += covered
            return d
        s[1] += d
        s[2] += d - covered
        if stack:
            stack[-1][2] += d
        if rec is not None:
            span = self.spans[rec]
            span[1], span[2], span[5] = t0, t1, d - covered
        return d

    @contextlib.contextmanager
    def span(self, name: str, item_id: str | None = None):
        """A recorded span around an item or a phase; the wrapped calls made
        directly inside it get span records of their own."""
        frame = self._enter(name, NORMAL, True, item_id)
        prev = self.item
        if item_id is not None:
            self.item = (frame[3], item_id)
        try:
            yield
        finally:
            self.item = prev
            self._exit(frame)

    def item_span(self, item_id: str):
        return self.span("item", item_id)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        split = SPLITS.get(name)
        tracer = self

        if kind == GENERATOR:
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name, kind)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    yield value
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(name, kind)
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = tracer._exit(frame)
                    if split is not None:
                        s = tracer._state()[1].setdefault(split(args), [0, 0.0, 0.0])
                        s[0] += 1
                        s[1] += d
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        mods = _modules()
        classes = [c for m in mods.values() for c in vars(m).values()
                   if inspect.isclass(c) and c.__module__ == m.__name__]
        for name, (mod_name, attr) in CACHED.items():
            info = getattr(mods[mod_name], attr).cache_info()
            self._cache_base[name] = (info.hits, info.misses)
        try:
            for mod_name, path, name, kind in TARGETS:
                owner = mods[mod_name]
                *head, attr = path.split(".")
                for part in head:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
                wrapper = self._wrap(name, orig, kind)
                # every module, class and module-level dict that holds the object
                for ns in list(mods.values()) + classes:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            self._patches.append((ns, key, orig, False))
                            setattr(ns, key, wrapper)
                        elif isinstance(val, dict) and not inspect.isclass(ns):
                            for k, v in list(val.items()):
                                if v is orig:
                                    self._patches.append((val, k, orig, True))
                                    val[k] = wrapper
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            ns, key, orig, is_dict = self._patches.pop()
            if is_dict:
                ns[key] = orig
            else:
                setattr(ns, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results ------------------------------------------------------------

    def merged(self) -> tuple[dict, Counter]:
        stats: dict[str, list] = {}
        edges: Counter = Counter()
        with self._lock:
            parts = list(self._per_thread)
        for st, ed in parts:
            for k, (c, tot, slf) in st.items():
                s = stats.setdefault(k, [0, 0.0, 0.0])
                s[0] += c
                s[1] += tot
                s[2] += slf
            edges.update(ed)
        return stats, edges

    def cache_ratios(self) -> dict[str, float]:
        """Hit share of the lru caches over the traced part of the run."""
        mods = _modules()
        out = {}
        for name, (mod_name, attr) in CACHED.items():
            fn = getattr(mods[mod_name], attr)
            if not hasattr(fn, "cache_info"):  # still wrapped by this tracer
                fn = fn.__wrapped__
            info = fn.cache_info()
            h0, m0 = self._cache_base.get(name, (0, 0))
            hits, misses = info.hits - h0, info.misses - m0
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, item_id, self_s) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent,
                                     "item": item_id, "self_s": self_s}) + "\n")


def round_metrics(tracer: Tracer, items, check_names, ramified_entries: int) -> dict[str, float]:
    """Per-layer values of one traced round (all but the RUN_LEVEL ones).

    ``items`` are the round's outcome items; ``checks.<name>.s`` is the
    duration of that registry check when the round ran the registry."""
    stats, edges = tracer.merged()

    def get(key, i):
        return stats[key][i] if key in stats else 0

    out: dict[str, float] = {}
    for _, _, name, kind in TARGETS:
        if kind == TRANSPARENT:
            continue
        if name not in SELF_ONLY:
            out[name + ".calls"] = get(name, 0)
        out[name + ".self_s"] = get(name, 2)
    for name, ratio in tracer.cache_ratios().items():
        out[name + ".cache_hit_ratio"] = ratio
    omega_calls = get("weil.omega", 0)
    fallthrough = edges[("weil.omega", "weil.omega_word")]
    out["weil.omega.group_hit_ratio"] = 1 - fallthrough / omega_calls if omega_calls else 0.0
    for d in TRACE_DIMS:
        key = "weil.trace_omega.d%d" % d
        out[key + ".ms_mean"] = get(key, 1) / get(key, 0) * 1e3 if get(key, 0) else 0.0
    for p in GROUP_PRIMES:
        out["weil.build_group_model.p%d.s" % p] = get("weil.build_group_model.p%d" % p, 1)
    out["signcalc.build_block.calls_per_item"] = get("signcalc.build_block", 0) / max(len(items), 1)
    out["signcalc.ramified_cache.entries"] = ramified_entries
    by_id = {it.id: it.ms / 1e3 for it in items}
    for name in check_names:
        out["checks.%s.s" % name] = by_id.get(name, 0.0)
    item_spans = [s for s in tracer.spans if s[0] == "item"]
    total = sum(s[2] - s[1] for s in item_spans)
    out["trace.unattributed_ratio"] = sum(s[5] for s in item_spans) / total if total else 0.0
    return out
