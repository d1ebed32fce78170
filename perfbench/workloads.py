"""The four benchmark workloads: seeded input generation and checked items.

``make_inputs(workload, seed, workdir)`` is the only place the seed is used;
``run_items(workload, inputs)`` runs the program on those inputs, one item at
a time, and checks every output.  An item fails when it raises, exits
nonzero, has a row that is not ``passed``, or has |formula - oracle| above
``TOL``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field

from weilchar import checks, cli, ffield, lattice, signcalc, symplectic as sym, weil

TOL = 1e-8  # acceptance criterion 05's tolerance

SWEEP_PRIMES = {"sweep-small": (3, 5), "sweep-large": (5,)}
LARGE_DIM = 625
SMALL_DIM_CAP = 125
# etas drawn per (family, C) stratum; one round of items takes about 4 s on
# sweep-small and 4 s on sweep-large at one BLAS thread
ETAS_PER_STRATUM = {"sweep-small": 16, "sweep-large": 1}

BATCH_FILES = 48  # one item per file
BATCH_JOBS = 2  # the --jobs value under test (ROADMAP item 3)


@dataclass
class Item:
    id: str
    ms: float
    ok: bool
    err: float | None  # worst |formula - oracle|; None if nothing numeric was compared
    detail: str = ""  # the exception, when the item raised
    start: float = 0.0  # time.perf_counter() when the item started


@dataclass
class Outcome:
    items: list[Item]
    gate_notes: list[str] = field(default_factory=list)  # workload-level gate failures
    reports: list[str] = field(default_factory=list)  # scenario-batch report texts

    def digest(self) -> str:
        """Hash of everything the program decided: item ids, pass flags, reports."""
        h = hashlib.sha256()
        for it in self.items:
            h.update(("%s|%d\n" % (it.id, it.ok)).encode())
        for text in self.reports:
            h.update(text.encode())
        return h.hexdigest()


def _worst(errs) -> float | None:
    finite = [e for e in errs if e is not None and math.isfinite(e)]
    return max(finite) if finite else None


def _timed(item_id: str, body, item_span) -> Item:
    """Run ``body() -> (ok, err)`` as one item; an exception fails the item."""
    with item_span(item_id):
        t0 = time.perf_counter()
        detail = ""
        try:
            ok, err = body()
        except Exception as exc:  # a crash is a failed item, not a crashed benchmark
            ok, err, detail = False, None, repr(exc)
        ms = (time.perf_counter() - t0) * 1e3
    return Item(item_id, ms, ok, err, detail, t0)


# ---------------------------------------------------------------------------
# sweep-small / sweep-large: criterion-05 sign blocks


@dataclass
class SweepInputs:
    blocks: list[tuple[str, signcalc.OrbitScenario]]
    families: set[str]  # every family of the enumeration the sample must cover


def model_dim(sc: signcalc.OrbitScenario) -> int:
    """p^n for the block's Weil model (symmetric blocks have dimension d)."""
    d = sc.k_alpha.degree
    return sc.p ** (d // 2 if sc.sym_alpha else d)


def sweep_inputs(workload: str, seed: int) -> SweepInputs:
    """Stratified eta sample from the full criterion-05 enumeration."""
    rng = random.Random(seed)
    strata: dict[tuple[str, str], list] = defaultdict(list)
    for p in SWEEP_PRIMES[workload]:
        for label, sc in checks.sign_branch_scenarios(p, max_degree=4, eta_cap=ffield.FIELD_CAP, c_variants=2):
            dim = model_dim(sc)
            if (dim == LARGE_DIM) if workload == "sweep-large" else (dim <= SMALL_DIM_CAP):
                strata[(label, ffield.serialize(sc.C))].append(sc)
    blocks = []
    for key in sorted(strata):
        pool = strata[key]
        for i in sorted(rng.sample(range(len(pool)), min(ETAS_PER_STRATUM[workload], len(pool)))):
            blocks.append((key[0], pool[i]))
    return SweepInputs(blocks, {label for label, _ in strata})


def oracle_trace(bb: signcalc.BlockBuild) -> complex:
    """The brute-force side of the comparison: tr omega(op) on the block."""
    return weil.WeilModel(bb.space).trace_omega(bb.op)


def run_sweep(inputs: SweepInputs, item_span=contextlib.nullcontext) -> Outcome:
    signs: dict[str, set[int]] = defaultdict(set)

    def block(label, sc):
        bb = signcalc.build_block(sc)
        bv = signcalc.block_sign_formula(sc)
        err = abs(bv.value - oracle_trace(bb))
        if sc.classification.endswith("sym-ram"):
            signs[label].add(bv.sign)
        return err <= TOL, err

    items = []
    for label, sc in inputs.blocks:
        item_id = "%s C=%s eta=%s" % (label, ffield.serialize(sc.C), ffield.serialize(sc.eta_alpha))
        items.append(_timed(item_id, lambda: block(label, sc), item_span))
    notes = []
    seen = {label for label, _ in inputs.blocks}
    if seen != inputs.families:
        notes.append("families not covered: %s" % sorted(inputs.families - seen))
    for label, vals in sorted(signs.items()):
        if len(vals) != 1:
            notes.append("ramified sign depends on eta in %s: %s" % (label, sorted(vals)))
    return Outcome(items, notes)


# ---------------------------------------------------------------------------
# selfcheck: the whole registry


def run_selfcheck(fault: str = "", item_span=contextlib.nullcontext) -> Outcome:
    """``checks.run_checks()`` over the registry, one item per registry check.

    Each registry entry is swapped for a timed wrapper for the duration of
    the call and restored afterwards; run_checks itself is unchanged."""
    timing: dict[str, tuple[float, float]] = {}  # name: (start, ms)
    orig = checks.CHECKS

    def timed(name, fn):
        def call():
            with item_span(name):
                t0 = time.perf_counter()
                try:
                    return fn()
                finally:
                    timing[name] = (t0, (time.perf_counter() - t0) * 1e3)

        return call

    checks.CHECKS = [(name, timed(name, fn)) for name, fn in orig]
    try:
        rows, _ = checks.run_checks(fault=fault)
    finally:
        checks.CHECKS = orig
    by_name = defaultdict(list)
    for r in rows:
        by_name[r.scenario_id].append(r)
    items = []
    for name, _ in orig:
        rs = by_name[name]
        ok = bool(rs) and all(r.passed for r in rs)
        start, ms = timing[name]
        items.append(Item(name, ms, ok, _worst(r.abs_error for r in rs if not isinstance(r.formula, str)), start=start))
    return Outcome(items)


# ---------------------------------------------------------------------------
# scenario-batch: `weilchar run` on generated scenario files

_LATTICE_FIXTURES = (  # theta and its pi_0 torsion, from the bundled sign_f3.scn
    ([[-1]], [2]),
    ([[0, 1], [1, 0]], []),
    ([[0, -1], [1, -1]], [3]),
)
# the shapes a scenario of each kind cycles through (p, torus subdegrees /
# model (p, n) / twist groups); the seed draws everything else
_TORUS_SHAPES = ((3, (1,)), (3, (1, 1)), (3, (2,)), (5, (1,)), (5, (1, 1)), (7, (1,)))
_WEIL_SHAPES = ((3, 1), (5, 1), (7, 1), (3, 2))
_TWIST_SHAPES = ((3, (1,)), (3, (2,)), (3, (1, 1)), (3, (1, 2)), (3, (3,)), (5, (1,)), (5, (2,)), (5, (1, 1)), (5, (1, 2)))


def _field_tag(k: ffield.FieldDesc) -> str:
    return "%d^%d" % (k.p, k.degree)


def _action_json(act: signcalc.OrbitAction) -> dict:
    return {"phi": act.size, "gamma_gens": [list(act.frobenius)], "neg": list(act.neg), "theta": list(act.theta)}


def _orbit_json(sc: signcalc.OrbitScenario) -> dict:
    return {
        "alpha": sc.alpha,
        "classification": sc.classification,
        "C": ffield.serialize(sc.C),
        "eta_alpha": ffield.serialize(sc.eta_alpha),
        "eta_minus_alpha": None if sc.eta_minus_alpha is None else ffield.serialize(sc.eta_minus_alpha),
        "fields": {
            "k_alpha": _field_tag(sc.k_alpha),
            "k_pm_alpha": _field_tag(sc.k_pm_alpha),
            "k_alpha_res": _field_tag(sc.k_res),
            "k_pm_alpha_res": _field_tag(sc.k_pm_res),
        },
    }


def _gen_gerardin(rng, pools, i):
    p, shape = _TORUS_SHAPES[i % len(_TORUS_SHAPES)]
    return {"p": p, "factors": [{"type": rng.choice(("norm-one", "split")), "subdegree": d} for d in shape]}


def _gen_weil_verify(rng, pools, i):
    p, n = _WEIL_SHAPES[i % len(_WEIL_SHAPES)]
    return {"p": p, "n": n, "pairs": 60, "words": 12}


def _gen_twisted_trace(rng, pools, i):
    p, groups = _TWIST_SHAPES[i % len(_TWIST_SHAPES)]
    return {"p": p, "groups": list(groups), "trials": 5}


def _gen_sign_block(rng, pools, i):
    families = sorted(pools["sign"])
    pool = pools["sign"][families[i % len(families)]]
    scs = rng.sample(pool, min(2, len(pool)))
    return {"action": _action_json(scs[0].action), "orbits": [_orbit_json(sc) for sc in scs]}


def _gen_assemble(rng, pools, i):
    p = (3, 5)[i % 2]
    f1, k2 = ffield.field(p, 1), ffield.field(p, 2)
    no = ffield.norm_one_group(k2, f1)
    act = signcalc.OrbitAction(4, (0, 1, 3, 2), (1, 0, 3, 2), (0, 1, 2, 3))
    eta = rng.choice(list(f1.units()))
    scen = [
        signcalc.OrbitScenario(act, 0, f1, f1, f1, f1, f1.one(), eta, eta.inverse(), "asym/asym"),
        signcalc.OrbitScenario(act, 2, k2, f1, k2, f1, sym.anti_invariant_unit(k2, 1), rng.choice(no), None, "sym-ur/sym-ur"),
    ]
    angle = rng.uniform(0.0, 2 * math.pi)
    return {
        "action": _action_json(act),
        "orbits": [_orbit_json(sc) for sc in scen],
        "s_values": {"0": ffield.serialize(rng.choice(list(f1.units()))), "2": ffield.serialize(rng.choice(no))},
        "vartheta_s": [math.cos(angle), math.sin(angle)],
    }


def _gen_root_datum(rng, pools, i):
    names = sorted(pools["catalogue"])
    name = names[(i + rng.randrange(len(names))) % len(names)]
    if name == "A2.flip":  # the one datum with published type counts (sign_f3.scn)
        return {"name": name, "expect_type_counts": {"2": 2, "3": 2}}
    return {"name": name}


def _gen_lattice_check(rng, pools, i):
    fixtures = rng.sample(_LATTICE_FIXTURES, 2)
    return {
        "matrices": [{"theta": theta, "expect_torsion": torsion} for theta, torsion in fixtures],
        "pi0_trials": 12,
    }


GENERATORS = {
    "gerardin": _gen_gerardin,
    "weil-verify": _gen_weil_verify,
    "twisted-trace": _gen_twisted_trace,
    "sign-block": _gen_sign_block,
    "assemble": _gen_assemble,
    "root-datum": _gen_root_datum,
    "lattice-check": _gen_lattice_check,
}


def batch_inputs(seed: int, workdir: str) -> list[tuple[str, int]]:
    """Write BATCH_FILES scenario files of three scenarios each.  Which kinds
    and shapes a file holds is fixed, so every round covers all of cli.KINDS
    with the same mix of work; the seed draws the parameters.  Returns
    (scenario file, --seed for its run) pairs."""
    rng = random.Random(seed)
    sign_pool: dict[str, list] = defaultdict(list)
    for label, sc in checks.sign_branch_scenarios(3, max_degree=2, eta_cap=ffield.FIELD_CAP, c_variants=2):
        sign_pool[label].append(sc)
    pools = {"sign": sign_pool, "catalogue": lattice.catalogue()}
    kinds = sorted(GENERATORS)
    seen = dict.fromkeys(kinds, 0)  # the n-th scenario of a kind takes its n-th shape
    files = []
    for i in range(BATCH_FILES):
        scenarios = []
        for j in range(3):
            kind = kinds[(3 * i + j) % len(kinds)]
            scenarios.append({"id": "%s-%d" % (kind, j), "kind": kind, "payload": GENERATORS[kind](rng, pools, seen[kind])})
            seen[kind] += 1
        path = os.path.join(workdir, "batch-%02d.scn" % i)
        with open(path, "w") as fh:
            json.dump({"scenarios": scenarios}, fh, indent=1, sort_keys=True)
        files.append((path, rng.randrange(2**31)))
    return files


def run_batch(files: list[tuple[str, int]], item_span=contextlib.nullcontext) -> Outcome:
    reports = []

    def one(path, seed):
        out = path + ".report.json"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", path, "--jobs", str(BATCH_JOBS), "--seed", str(seed), "--report", out])
        if code not in (cli.EXIT_OK, cli.EXIT_FAIL):  # no report was written
            raise RuntimeError("exit %d: %s" % (code, sink.getvalue().strip()[-300:]))
        with open(out) as fh:
            text = fh.read()
        reports.append(text)
        doc = json.loads(text)
        errs = [r["abs_error"] for r in doc["rows"] if isinstance(r["abs_error"], float) and not isinstance(r["formula"], str)]
        err = _worst(errs)
        ok = code == cli.EXIT_OK and doc["all_pass"] and all(r["pass"] for r in doc["rows"]) and (err is None or err <= TOL)
        return ok, err

    items = [_timed(os.path.basename(path), lambda: one(path, s), item_span) for path, s in files]
    return Outcome(items, reports=reports)


# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, workdir: str):
    """Everything the seed decides.  The selfcheck registry carries fixed
    internal seeds, so the seed does not apply to it."""
    if workload in SWEEP_PRIMES:
        return sweep_inputs(workload, seed)
    if workload == "scenario-batch":
        return batch_inputs(seed, workdir)
    if workload == "selfcheck":
        return None
    raise ValueError("unknown workload %r" % workload)


def run_items(workload: str, inputs, item_span=contextlib.nullcontext) -> Outcome:
    if workload in SWEEP_PRIMES:
        return run_sweep(inputs, item_span)
    if workload == "scenario-batch":
        return run_batch(inputs, item_span)
    return run_selfcheck(item_span=item_span)
