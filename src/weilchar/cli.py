"""Scenario runner and verification harness.

Subcommands:
  weilchar run <file> [--seed N] [--jobs N] [--tolerance X] [--report PATH] [--format json|csv]
                                execute a scenario file, emit a report
  weilchar selfcheck [--filter S] [--fault NAME] [--report PATH] [--format json|csv]
                                run the built-in invariants (--fault: a checks.FAULTS name)
  weilchar tabulate-ramified    print the oracle-computed ramified constants
  weilchar root-datum <file>    restricted-root report for a datum

Exit codes: 0 all pass, 1 failed comparison, 2 parse error, 3 validation
error.  Reports are deterministic for a fixed seed (canonical JSON or CSV).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import checks, ffield, gerardin, lattice, signcalc, symplectic as sym, weil
from .checks import Row

EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_VALIDATION = 0, 1, 2, 3

# the most samples a payload may ask for (weil-verify pairs and words,
# twisted-trace trials, lattice-check pi0_trials) and the most elements a
# gerardin torus may have; the bundled scenarios ask for at most 150
SAMPLE_CAP = 10_000


class ScenarioValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# payload parsing


_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer", str: "a string", (int, float): "a number"}


def _typed(value, kind, what: str, least: int | None = None):
    """value, refused unless it has JSON type kind (a bool is not a number)
    and, given least, is at least that: a count below it would check nothing."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioValidationError("%s must be %s, got %r" % (what, _JSON_TYPES[kind], value))
    if least is not None and value < least:
        raise ScenarioValidationError("%s must be at least %d, got %d" % (what, least, value))
    return value


def _samples(payload, key: str, default: int, least: int = 1) -> int:
    """The sample count payload[key], refused above SAMPLE_CAP before any
    sample is drawn."""
    count = _typed(payload.get(key, default), int, key, least)
    if count > SAMPLE_CAP:
        raise ScenarioValidationError("%s must be at most %d, got %d" % (key, SAMPLE_CAP, count))
    return count


def _parse_field(s, what: str) -> ffield.FieldDesc:
    ps, _, ks = _typed(s, str, what).partition("^")
    return ffield.field(int(ps), int(ks) if ks else 1)


def _parse_elem(s, what: str) -> ffield.FieldElem:
    return ffield.deserialize(_typed(s, str, what))


def _int_rows(value, what: str) -> list[list[int]]:
    return [[_typed(x, int, what + " entry") for x in _typed(row, list, what + " row")] for row in _typed(value, list, what)]


def _load_datum(source) -> lattice.RootDatum:
    """The root datum a catalogue name (a string) or a datum object
    {rank, roots, coroots, theta} describes."""
    if isinstance(source, str):
        cat = lattice.catalogue()
        if source not in cat:
            raise ScenarioValidationError("unknown catalogue datum %r (known: %s)" % (source, ", ".join(sorted(cat))))
        return cat[source]
    _typed(source, dict, "datum")
    matrices = {key: _int_rows(source[key], key) for key in ("roots", "coroots", "theta")}
    return lattice.datum_from_json(dict(matrices, rank=_typed(source["rank"], int, "rank")))


def _parse_action(obj) -> signcalc.OrbitAction:
    _typed(obj, dict, "action")
    size = _typed(obj["phi"], int, "phi")
    gens = _typed(obj["gamma_gens"], list, "gamma_gens")
    if len(gens) != 1:
        raise ScenarioValidationError("gamma_gens must contain exactly one (cyclic) generator")
    frob, neg, theta = (
        tuple(_typed(perm, list, name)) for perm, name in ((gens[0], "gamma_gens[0]"), (obj["neg"], "neg"), (obj["theta"], "theta"))
    )
    return signcalc.OrbitAction(size, frob, neg, theta)


def _parse_orbit(action: signcalc.OrbitAction, obj) -> signcalc.OrbitScenario:
    fields = _typed(_typed(obj, dict, "orbit")["fields"], dict, "fields")
    eta_minus = obj.get("eta_minus_alpha")
    return signcalc.OrbitScenario(
        action,
        _typed(obj["alpha"], int, "alpha"),
        *(_parse_field(fields[tag], tag) for tag in ("k_alpha", "k_pm_alpha", "k_alpha_res", "k_pm_alpha_res")),
        _parse_elem(obj["C"], "C"),
        _parse_elem(obj["eta_alpha"], "eta_alpha"),
        None if eta_minus is None else _parse_elem(eta_minus, "eta_minus_alpha"),
        obj["classification"],
    )


_TORUS_FACTORS = {"norm-one": True, "split": False}  # factor type -> norm_one


def _parse_torus(obj) -> sym.Torus:
    factors = []
    for f in _typed(obj["factors"], list, "factors"):
        kind = _typed(_typed(f, dict, "factor")["type"], str, "factor type")
        if kind not in _TORUS_FACTORS:
            raise ScenarioValidationError("unknown torus factor type %r (known: %s)" % (kind, ", ".join(_TORUS_FACTORS)))
        factors.append((_typed(f["subdegree"], int, "subdegree"), _TORUS_FACTORS[kind]))
    return sym.Torus(_typed(obj["p"], int, "p"), tuple(factors))


# ---------------------------------------------------------------------------
# scenario kinds


def run_gerardin(sid: str, payload, tol: float, seed: int) -> list[Row]:
    torus = _parse_torus(payload)
    # the model of the torus's space has dimension p^(sum of the subdegrees):
    # refused before any field block is built
    weil.check_model_dim(torus.p, sum(d for d, _ in torus.factors))
    # one trace per element: |T| is refused before any element is built
    if torus.order > SAMPLE_CAP:
        raise ScenarioValidationError("|T| = %d exceeds the sample cap %d" % (torus.order, SAMPLE_CAP))
    model = weil.WeilModel(torus.space)
    rows = []
    els = list(torus.elements())
    for t, oracle in zip(els, model.trace_stack([t.elem for t in els]).tolist()):
        formula = gerardin.char_semisimple(t)
        label = "char t=(%s)" % ",".join(ffield.serialize(piece.x) for piece in t.pieces)
        rows.append(Row.compare(sid, label, formula, oracle, tol, seed))
    return rows


def run_weil_verify(sid: str, payload, tol: float, seed: int) -> list[Row]:
    p, n = _typed(payload["p"], int, "p"), _typed(payload.get("n", 1), int, "n", least=1)
    pairs, words = _samples(payload, "pairs", 100), _samples(payload, "words", 20)
    # the cap first: it bounds p before the primality test's trial division
    weil.check_model_dim(p, n, weil.DENSE_DIM_CAP, "dense operator")
    weil.check_odd_prime(p)
    space = sym.standard_polarized_space(p, n)
    model = weil.WeilModel(space)
    rng = np.random.default_rng(seed)
    rows = []
    size = p ** (2 * n + 1)  # |H(V)|, drawn by heis_decode position
    errs = []
    # chunks of pairs keep rho_parts' (pairs, p^n, 2n) temporaries bounded
    chunk = max(1, weil.GATHER_CHUNK_ENTRIES // (model.dim * space.dim))
    for lo in range(0, pairs, chunk):
        drawn = np.array([(rng.integers(size), rng.integers(size)) for _ in range(min(chunk, pairs - lo))], dtype=np.int64)
        (va, vb), (za, zb) = sym.heis_decode(space, drawn.T)
        ca, pa = model.rho_parts(va, za)
        cb, pb = model.rho_parts(vb, zb)
        cab, pab = model.rho_parts(*sym.heis_law(space, va, za, vb, zb))
        # rho(a) rho(b) is monomial: row t goes to column cb[ca[t]] with phase pa[t] pb[ca[t]]
        got_cols, got = np.take_along_axis(cb, ca, axis=1), pa * np.take_along_axis(pb, ca, axis=1)
        errs.append(weil.monomial_distance(got_cols, got, cab, pab))
    rows.append(Row.compare(sid, "rho homomorphism (sampled)", checks.max_error(errs), 0, tol, seed))
    gens = sym.sp_generators(space)
    hs = gens[[rng.integers(len(gens)) for _ in range(words)]]
    walk = [np.eye(space.dim, dtype=np.int64)]
    for h in hs:
        walk.append(walk[-1] @ h % p)
    walk = np.stack(walk)
    # omega(g_i) omega(h_i) = omega(g_i+1) along the walk g_i+1 = g_i h_i, in
    # chunks of steps that keep the (k, p^n, p^n) operator stacks bounded
    errs = []
    step = max(1, weil.GATHER_CHUNK_ENTRIES // (2 * model.dim**2))
    for lo in range(0, words, step):
        k = min(step, words - lo)
        ops = model.omega_stack(np.concatenate([walk[lo : lo + k + 1], hs[lo : lo + k]]))
        errs.append(np.abs(ops[:k] @ ops[k + 1 :] - ops[1 : k + 1]).max())
    rows.append(Row.compare(sid, "omega multiplicative (word walk)", checks.max_error(errs), 0, tol, seed))
    return rows


def run_twisted_trace(sid: str, payload, tol: float, seed: int) -> list[Row]:
    p = _typed(payload["p"], int, "p")
    group_sizes = [_typed(x, int, "groups entry") for x in _typed(payload["groups"], list, "groups")]
    if not group_sizes or min(group_sizes) < 1:
        raise ScenarioValidationError("groups must be a nonempty list of sizes >= 1, got %r" % (group_sizes,))
    trials = _samples(payload, "trials", 10)
    # |value| is at most the whole sum's model dimension, so within the cap the
    # float error stays far below the tolerance; the cap also bounds p before
    # the primality test's trial division
    weil.check_model_dim(p, sum(group_sizes))
    weil.check_odd_prime(p)
    v2 = sym.standard_polarized_space(p, 1)
    grp = sym.sp_group(v2)  # refuses a group above the enumeration cap before any model is built
    twist = weil.block_twist([(sym.sp_identity(v2), size) for size in group_sizes])
    rng = np.random.default_rng(seed)
    rows = []
    drawn = [[grp.elem(rng.integers(len(grp.mats))) for _ in range(sum(group_sizes))] for _ in range(trials)]
    for trial, res in enumerate(weil.twisted_trace_stack(twist, drawn)):
        rows.append(Row.compare(sid, "product vs direct #%d" % trial, res.product_value, res.direct_value, tol, seed))
    return rows


def run_sign_block(sid: str, payload, tol: float, seed: int) -> list[Row]:
    action = _parse_action(payload["action"])
    rows = []
    for i, obj in enumerate(_typed(payload["orbits"], list, "orbits")):
        sc = _parse_orbit(action, obj)
        bb = signcalc.build_block(sc)
        bv = signcalc.block_sign_formula(sc)
        oracle = weil.WeilModel(bb.space).trace_omega(bb.op)
        rows.append(Row.compare(sid, "block %d (%s)" % (i, sc.classification), bv.value, oracle, tol, seed))
        if "expect_value" in obj:
            pinned = float(_typed(obj["expect_value"], (int, float), "expect_value"))
            rows.append(Row.compare(sid, "block %d pinned value" % i, bv.value, pinned, tol, seed))
    return rows


def run_assemble(sid: str, payload, tol: float, seed: int) -> list[Row]:
    action = _parse_action(payload["action"])
    scenarios = {}
    for obj in _typed(payload["orbits"], list, "orbits"):
        sc = _parse_orbit(action, obj)
        scenarios[sc.alpha] = sc
    raw = _typed(payload["s_values"], dict, "s_values")
    s_values = {int(k): _parse_elem(v, "s_values entry") for k, v in raw.items()}
    if len(s_values) != len(raw):  # "0" and "00": the last would win
        raise ScenarioValidationError("s_values keys %s name one root twice" % sorted(raw))
    re_im = _typed(payload.get("vartheta_s", [1.0, 0.0]), list, "vartheta_s")
    if len(re_im) != 2:
        raise ScenarioValidationError("vartheta_s must be [re, im], got %r" % (re_im,))
    vartheta = complex(*(_typed(x, (int, float), "vartheta_s entry") for x in re_im))
    asm = signcalc.assemble_product(action, scenarios, s_values)
    oracle = signcalc.full_space_oracle(action, scenarios, s_values)
    rows = [
        Row.compare(sid, "assembled vs oracle (product path)", asm.value, oracle.product_value, tol, seed),
        Row.compare(sid, "oracle product vs direct", oracle.product_value, oracle.direct_value, tol, seed),
    ]
    if asm.f1_regime:
        rows.append(
            Row.compare(sid, "theta_rho", signcalc.theta_rho(asm, vartheta), oracle.product_value * vartheta, tol, seed)
        )
    return rows


def run_root_datum(sid: str, payload, tol: float, seed: int) -> list[Row]:
    datum = _load_datum(_typed(payload["name"], str, "name") if "name" in payload else payload)
    res = lattice.restrict_roots(datum)
    counts: dict[int, int] = {}
    for r in res.restricted:
        counts[r.type_tag] = counts.get(r.type_tag, 0) + 1
    orbits = {frozenset(datum.theta_orbit(a)) for a in datum.roots}  # Phi / Theta, apart from restrict_roots
    rows = [Row.compare(sid, "restricted count", len(res.restricted), len(orbits), 0, seed)]
    expect = payload.get("expect_type_counts")
    if expect is not None:
        want = {int(k): _typed(v, int, "expect_type_counts entry") for k, v in _typed(expect, dict, "expect_type_counts").items()}
        rows.append(Row.compare(sid, "type counts", str(sorted(counts.items())), str(sorted(want.items())), 0, seed))
    return rows


def run_lattice_check(sid: str, payload, tol: float, seed: int) -> list[Row]:
    matrices = _typed(payload.get("matrices", []), list, "matrices")
    trials = _samples(payload, "pi0_trials", 0, least=0)
    if not matrices and not trials:
        raise ScenarioValidationError("a lattice check needs matrices or pi0_trials >= 1, got neither")
    rows = []
    for i, obj in enumerate(matrices):
        torsion = lattice.pi0_torsion(_int_rows(_typed(obj, dict, "matrices entry")["theta"], "theta"))
        want = [_typed(x, int, "expect_torsion entry") for x in _typed(obj["expect_torsion"], list, "expect_torsion")]
        rows.append(Row.compare(sid, "torsion #%d" % i, str(torsion), str(want), 0, seed))
    if trials:
        out = checks.check_pi0_property(seed=seed, trials=trials)
        for r in out:
            r.scenario_id = sid
        rows.extend(out)
    return rows


RUNNERS = {
    "gerardin": run_gerardin,
    "weil-verify": run_weil_verify,
    "twisted-trace": run_twisted_trace,
    "sign-block": run_sign_block,
    "assemble": run_assemble,
    "root-datum": run_root_datum,
    "lattice-check": run_lattice_check,
}
KINDS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# report plumbing


def _row_to_dict(r: Row) -> dict:
    def fmt(v):
        if isinstance(v, complex):
            return [round(v.real, 12), round(v.imag, 12)]
        if isinstance(v, float):
            return round(v, 12)
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        return str(v)

    # wall-clock timing stays off the canonical report so byte-identical
    # reproducibility holds; timings go to the console summary instead
    return {
        "scenario": r.scenario_id,
        "quantity": r.quantity,
        "formula": fmt(r.formula),
        "oracle": fmt(r.oracle),
        "abs_error": float("%.6e" % r.abs_error) if np.isfinite(r.abs_error) else "inf",
        "pass": bool(r.passed),
        "seed": r.seed,
    }


def render_report(rows: list[Row], fmt: str) -> str:
    dicts = [_row_to_dict(r) for r in sorted(rows, key=lambda r: (r.scenario_id, r.quantity))]
    if fmt == "json":
        return json.dumps({"rows": dicts, "all_pass": all(r.passed for r in rows)}, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["scenario", "quantity", "formula", "oracle", "abs_error", "pass", "seed"])
    writer.writeheader()
    for d in dicts:
        d = dict(d)
        for key in ("formula", "oracle"):
            if isinstance(d[key], list):
                d[key] = "%g%+gj" % (d[key][0], d[key][1])
        writer.writerow(d)
    return buf.getvalue()


def _emit(rows: list[Row], args, elapsed: float) -> int:
    text = render_report(rows, args.format)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    bad = [r for r in rows if not r.passed]
    for r in bad:
        print("FAIL %s / %s: formula=%r oracle=%r err=%r" % (r.scenario_id, r.quantity, r.formula, r.oracle, r.abs_error), file=sys.stderr)
    print("%d rows, %d failures, %.2fs" % (len(rows), len(bad), elapsed), file=sys.stderr)
    return EXIT_FAIL if bad else EXIT_OK


# ---------------------------------------------------------------------------
# commands


def cmd_run(args) -> int:
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        scenarios = _typed(_typed(doc, dict, "the scenario file")["scenarios"], list, "scenarios")
        seen = set()
        jobs = []
        for i, scn in enumerate(scenarios):
            where = "scenarios[%d]" % i
            sid = _typed(_typed(scn, dict, where)["id"], str, where + ".id")
            kind = scn["kind"]
            if sid in seen:
                raise ScenarioValidationError("duplicate scenario id %r" % sid)
            seen.add(sid)
            if kind not in KINDS:
                raise ScenarioValidationError("unknown kind %r" % kind)
            try:
                tol = _tolerance(scn.get("tolerance", args.tolerance))
            except argparse.ArgumentTypeError as exc:
                raise ScenarioValidationError("%s: %s" % (sid, exc)) from exc
            jobs.append((sid, kind, _typed(scn.get("payload", {}), dict, "%s: payload" % sid), tol))
    except (KeyError, TypeError, ValueError, argparse.ArgumentTypeError, ScenarioValidationError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION

    def exec_one(job):
        sid, kind, payload, tol = job
        try:
            return RUNNERS[kind](sid, payload, tol, args.seed)
        except (signcalc.SignCalcError, gerardin.GerardinError, sym.SymplecticError, weil.WeilError,
                ffield.FieldError, lattice.LatticeError, ScenarioValidationError, KeyError, ValueError) as exc:
            raise ScenarioValidationError("%s: %s" % (sid, exc)) from exc

    rows: list[Row] = []
    t0 = time.time()
    try:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            for out in pool.map(exec_one, jobs):
                rows.extend(out)
    except ScenarioValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    return _emit(rows, args, time.time() - t0)


def cmd_selfcheck(args) -> int:
    if not any(args.filter in name for name, _ in checks.CHECKS):
        print("parse error: --filter %r matches no check" % args.filter, file=sys.stderr)
        return EXIT_PARSE
    rows, elapsed = checks.run_checks(filter_substr=args.filter or "", fault=args.fault or "")
    text = render_report(rows, args.format)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    bad = [r for r in rows if not r.passed]
    for r in rows:
        mark = "ok " if r.passed else "FAIL"
        print("[%s] %s :: %s" % (mark, r.scenario_id, r.quantity))
    print("selfcheck: %d rows, %d failures, %.1fs" % (len(rows), len(bad), elapsed))
    return EXIT_FAIL if bad else EXIT_OK


def _oracle_sign(sc: signcalc.OrbitScenario) -> int:
    """The Weil trace of a ramified block (trivial fixed space), snapped to +-1."""
    bb = signcalc.build_block(sc)
    val = weil.WeilModel(bb.space).trace_omega(bb.op)
    snapped = round(val.real)
    if abs(val - snapped) > 1e-6 or snapped not in (1, -1):
        raise signcalc.SignCalcError("ramified trace did not snap to a sign: %r" % (val,))
    return snapped


def cmd_tabulate_ramified(args) -> int:
    rows = []
    for p in (3, 5, 7, 11, 13):
        f1 = ffield.field(p, 1)
        k2 = ffield.field(p, 2)
        # asym/sym-ram: all four residue fields F_p, every C in F_p^x
        act = signcalc.one_orbit_action(1, False, neg=True)
        for c in f1.units():
            eta_minus = signcalc.eta_target(act.roots[0], c)
            sc = signcalc.OrbitScenario(act, 0, f1, f1, f1, f1, c, f1.one(), eta_minus, "asym/sym-ram")
            rows.append(("asym/sym-ram", p, 1, ffield.serialize(c), _oracle_sign(sc)))
        # sym-ur/sym-ram: k_alpha quadratic, tau-antiinvariant C
        act2 = signcalc.one_orbit_action(2, True, neg=True)
        for c in sym.anti_invariant_units(k2, 1):
            eta = ffield.units_of_norm(k2, f1, signcalc.eta_target(act2.roots[0], c))[0]
            sc = signcalc.OrbitScenario(act2, 0, k2, f1, f1, f1, c, eta, None, "sym-ur/sym-ram")
            rows.append(("sym-ur/sym-ram", p, 2, ffield.serialize(c), _oracle_sign(sc)))
    print("branch,p,k_alpha_degree,C,constant,provenance")
    for branch, p, deg, c, sign in rows:
        print("%s,%d,%d,%s,%+d,oracle-computed" % (branch, p, deg, c, sign))
    return EXIT_OK


def cmd_root_datum(args) -> int:
    source = args.file
    if source not in lattice.catalogue():
        try:
            with open(source) as fh:
                source = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print("parse error: %s" % exc, file=sys.stderr)
            return EXIT_PARSE
    try:
        datum = _load_datum(source)
    except (lattice.LatticeError, ScenarioValidationError, KeyError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    res = lattice.restrict_roots(datum)
    print("rank %d, %d roots, theta order %d" % (datum.rank, len(datum.roots), datum.order))
    for r in sorted(res.restricted, key=lambda r: r.vector):
        print("  restricted %s  type %d  orbit size %d" % (r.vector, r.type_tag, len(r.orbit)))
    return EXIT_OK


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def _tolerance(value) -> float:
    """A comparison bound: a finite float >= 0.  inf or nan would pass every
    row and a negative bound fail every exact one."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if isinstance(value, bool) or not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError("tolerance must be a finite number >= 0, got %r" % (value,))
    return tol


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main is called in
    process too, once per command."""
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", type=str, default=None)
    report.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(prog="weilchar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[report], help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--jobs", type=_positive_int, default=1, help="threads; they share the GIL, so no speedup is claimed")
    p_run.add_argument("--tolerance", type=_tolerance, default=1e-8)

    p_self = sub.add_parser("selfcheck", parents=[report], help="run the built-in invariant suite")
    p_self.add_argument("--filter", type=str, default="")
    p_self.add_argument("--fault", type=str, default="", choices=("", *checks.FAULTS))

    sub.add_parser("tabulate-ramified", help="oracle-computed ramified signs, p <= 13 (tests hold sgn_{k_res}(-2) to them)")

    p_rd = sub.add_parser("root-datum", help="restricted-root report")
    p_rd.add_argument("file", help="catalogue name or JSON file")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "selfcheck": cmd_selfcheck,
        "tabulate-ramified": cmd_tabulate_ramified,
        "root-datum": cmd_root_datum,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
