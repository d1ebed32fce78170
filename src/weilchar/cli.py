"""Scenario runner and verification harness.

Subcommands:
  weilchar run <file>           execute a scenario file, emit a report
  weilchar selfcheck            run the built-in invariant suite
  weilchar tabulate-ramified    print the oracle-computed ramified constants
  weilchar root-datum <file>    restricted-root report for a datum

Exit codes: 0 all pass, 1 failed comparison, 2 parse error, 3 validation
error.  Reports are deterministic for a fixed seed (canonical JSON or CSV).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import checks, ffield, gerardin, lattice, signcalc, symplectic as sym, weil
from .checks import Row

EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_VALIDATION = 0, 1, 2, 3
KINDS = ("weil-verify", "gerardin", "twisted-trace", "sign-block", "assemble", "root-datum", "lattice-check")


class ScenarioValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# payload parsing


def _parse_field(s: str) -> ffield.FieldDesc:
    ps, _, ks = s.partition("^")
    return ffield.field(int(ps), int(ks) if ks else 1)


def _parse_action(obj) -> signcalc.OrbitAction:
    size = int(obj["phi"])
    gens = obj["gamma_gens"]
    if len(gens) != 1:
        raise ScenarioValidationError("gamma_gens must contain exactly one (cyclic) generator")
    return signcalc.OrbitAction(size, tuple(gens[0]), tuple(obj["neg"]), tuple(obj["theta"]))


def _parse_orbit(action: signcalc.OrbitAction, obj) -> signcalc.OrbitScenario:
    fields = obj["fields"]
    eta_minus = obj.get("eta_minus_alpha")
    return signcalc.OrbitScenario(
        action,
        int(obj["alpha"]),
        _parse_field(fields["k_alpha"]),
        _parse_field(fields["k_pm_alpha"]),
        _parse_field(fields["k_alpha_res"]),
        _parse_field(fields["k_pm_alpha_res"]),
        ffield.deserialize(obj["C"]),
        ffield.deserialize(obj["eta_alpha"]),
        None if eta_minus is None else ffield.deserialize(eta_minus),
        obj["classification"],
    )


def _parse_torus(obj) -> sym.BuiltTorus:
    factories = []
    for f in obj["factors"]:
        cls = sym.NormOneFactor if f["type"] == "norm-one" else sym.SplitFactor
        factories.append(cls(int(f["subdegree"])))
    return sym.build_torus(sym.TorusDesc(int(obj["p"]), tuple(factories)))


# ---------------------------------------------------------------------------
# scenario kinds


def run_gerardin(sid: str, payload, tol: float, seed: int) -> list[Row]:
    torus = _parse_torus(payload)
    wd = sym.weights(torus)
    model = weil.WeilModel(torus.space)
    rows = []
    for t in torus.elements():
        formula = gerardin.char_semisimple(t, wd)
        oracle = model.trace_omega(t.elem)
        label = "char t=(%s)" % ",".join(ffield.serialize(c) for c in t.coords)
        rows.append(Row.compare(sid, label, formula, oracle, tol, seed))
    return rows


def run_weil_verify(sid: str, payload, tol: float, seed: int) -> list[Row]:
    p, n = int(payload["p"]), int(payload.get("n", 1))
    space = sym.standard_polarized_space(p, n)
    model = weil.WeilModel(space)
    rng = np.random.default_rng(seed)
    rows = []
    hs = list(sym.heis_elements(space))
    worst = 0.0
    for _ in range(int(payload.get("pairs", 100))):
        a = hs[rng.integers(len(hs))]
        b = hs[rng.integers(len(hs))]
        worst = max(worst, float(np.abs(model.rho(a) @ model.rho(b) - model.rho(sym.heis_mul(a, b))).max()))
    rows.append(Row.compare(sid, "rho homomorphism (sampled)", worst, 0, tol, seed))
    gens = sym.sp_generators(space)
    g = sym.sp_identity(space)
    worst_m = 0.0
    for _ in range(int(payload.get("words", 20))):
        h = gens[rng.integers(len(gens))]
        worst_m = max(worst_m, float(np.abs(model.omega(g) @ model.omega(h) - model.omega(g * h)).max()))
        g = g * h
    rows.append(Row.compare(sid, "omega multiplicative (word walk)", worst_m, 0, tol, seed))
    rows.append(Row.compare(sid, "dim W", model.dim, p**n, 0, seed))
    if payload.get("dump_operators"):
        dump = json.dumps(weil.dump_operator(model.omega(gens[0])))
        rows.append(Row.compare(sid, "operator dump omega(gen0)", dump, dump, 0, seed))
    return rows


def run_twisted_trace(sid: str, payload, tol: float, seed: int) -> list[Row]:
    p = int(payload["p"])
    group_sizes = [int(x) for x in payload["groups"]]
    v2 = sym.standard_polarized_space(p, 1)
    spaces = [v2] * sum(group_sizes)
    total = sym.direct_sum(spaces)
    dim = total.dim
    imat = np.zeros((dim, dim), dtype=np.int64)
    groups = []
    off = 0
    for size in group_sizes:
        groups.append(tuple(range(off, off + size)))
        for j in range(size):
            src = total.blocks[off + j]
            dst = total.blocks[off + (j + 1) % size]
            imat[np.ix_(dst, src)] = np.eye(2, dtype=np.int64)
        off += size
    bt = weil.block_twist(total, groups, sym.sp_elem(total, imat), seed=seed)
    rng = np.random.default_rng(seed)
    els = sym.sp_elements(v2)
    rows = []
    for trial in range(int(payload.get("trials", 10))):
        big = np.zeros((dim, dim), dtype=np.int64)
        for b in range(sum(group_sizes)):
            gb = els[rng.integers(len(els))]
            big[np.ix_(total.blocks[b], total.blocks[b])] = gb.mat_np
        res = weil.twisted_trace(bt, sym.sp_elem(total, big))
        rows.append(Row.compare(sid, "product vs direct #%d" % trial, res.product_value, res.direct_value, tol, seed))
    return rows


def run_sign_block(sid: str, payload, tol: float, seed: int) -> list[Row]:
    action = _parse_action(payload["action"])
    rows = []
    for i, obj in enumerate(payload["orbits"]):
        sc = _parse_orbit(action, obj)
        bv = signcalc.block_sign_formula(sc)
        oracle = weil.WeilModel(bv.block.space).trace_omega(bv.block.op)
        rows.append(Row.compare(sid, "block %d (%s)" % (i, sc.classification), bv.value, oracle, tol, seed))
        if "expect_value" in obj:
            rows.append(Row.compare(sid, "block %d pinned value" % i, bv.value, float(obj["expect_value"]), tol, seed))
    return rows


def run_assemble(sid: str, payload, tol: float, seed: int) -> list[Row]:
    action = _parse_action(payload["action"])
    scenarios = {}
    for obj in payload["orbits"]:
        sc = _parse_orbit(action, obj)
        scenarios[sc.alpha] = sc
    s_values = {int(k): ffield.deserialize(v) for k, v in payload["s_values"].items()}
    re_im = payload.get("vartheta_s", [1.0, 0.0])
    vartheta = complex(float(re_im[0]), float(re_im[1]))
    asm = signcalc.assemble_product(action, scenarios, s_values)
    oracle = signcalc.full_space_oracle(action, scenarios, s_values, seed=seed)
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
    if "name" in payload:
        datum = lattice.catalogue()[payload["name"]]
    else:
        datum = lattice.datum_from_json(payload)
    res = lattice.restrict_roots(datum)
    counts: dict[int, int] = {}
    for r in res.restricted:
        counts[r.type_tag] = counts.get(r.type_tag, 0) + 1
    rows = [Row.compare(sid, "restricted count", len(res.restricted), len(res.restricted), 0, seed)]
    expect = payload.get("expect_type_counts")
    if expect is not None:
        want = {int(k): int(v) for k, v in expect.items()}
        rows.append(Row.compare(sid, "type counts", str(sorted(counts.items())), str(sorted(want.items())), 0, seed))
    return rows


def run_lattice_check(sid: str, payload, tol: float, seed: int) -> list[Row]:
    rows = []
    for i, obj in enumerate(payload.get("matrices", [])):
        torsion = lattice.pi0_torsion(obj["theta"])
        rows.append(Row.compare(sid, "torsion #%d" % i, str(torsion), str([int(x) for x in obj["expect_torsion"]]), 0, seed))
    trials = int(payload.get("pi0_trials", 0))
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
        scenarios = doc["scenarios"]
        seen = set()
        jobs = []
        for scn in scenarios:
            sid = scn["id"]
            kind = scn["kind"]
            if sid in seen:
                raise ScenarioValidationError("duplicate scenario id %r" % sid)
            seen.add(sid)
            if kind not in KINDS:
                raise ScenarioValidationError("unknown kind %r" % kind)
            tol = float(scn.get("tolerance", args.tolerance))
            jobs.append((sid, kind, scn.get("payload", {}), tol))
    except (KeyError, TypeError, ScenarioValidationError) as exc:
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
        act = checks.make_asym_symram_action()
        for c in f1.units():
            # eta constraint here: eta_+ eta_- = -varsigma(C)/C = -1
            sc = signcalc.OrbitScenario(act, 0, f1, f1, f1, f1, c, f1.one(), -f1.one(), "asym/sym-ram")
            rows.append(("asym/sym-ram", p, 1, ffield.serialize(c), _oracle_sign(sc)))
        # sym-ur/sym-ram: k_alpha quadratic, tau-antiinvariant C
        act2 = checks.make_symram_action()
        for c in k2.units():
            if c.frobenius(1) != -c:
                continue
            eta = next(e for e in k2.units() if e * e.frobenius(1) == c.frobenius(1) / c)
            sc = signcalc.OrbitScenario(act2, 0, k2, f1, f1, f1, c, eta, None, "sym-ur/sym-ram")
            rows.append(("sym-ur/sym-ram", p, 2, ffield.serialize(c), _oracle_sign(sc)))
    print("branch,p,k_alpha_degree,C,constant,provenance")
    for branch, p, deg, c, sign in rows:
        print("%s,%d,%d,%s,%+d,oracle-computed" % (branch, p, deg, c, sign))
    if args.out_of_cap:
        print("refused: p^k = %s exceeds the size cap %d" % (args.out_of_cap, ffield.FIELD_CAP))
    return EXIT_OK


def cmd_root_datum(args) -> int:
    cat = lattice.catalogue()
    if args.file in cat:
        datum = cat[args.file]
    else:
        try:
            with open(args.file) as fh:
                datum = lattice.datum_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print("parse error: %s" % exc, file=sys.stderr)
            return EXIT_PARSE
        except lattice.LatticeError as exc:
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


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--jobs", type=_positive_int, default=1, help="threads for `run`; they share the GIL, so no speedup is claimed")
    common.add_argument("--tolerance", type=float, default=1e-8)
    common.add_argument("--report", type=str, default=None)
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(prog="weilchar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="execute a scenario file")
    p_run.add_argument("file")

    p_self = sub.add_parser("selfcheck", parents=[common], help="run the built-in invariant suite")
    p_self.add_argument("--filter", type=str, default="")
    p_self.add_argument("--fault", type=str, default="", choices=("", "sgn"))

    p_tab = sub.add_parser("tabulate-ramified", parents=[common], help="oracle-computed ramified signs, p <= 13 (tests hold sgn_{k_res}(-2) to them)")
    p_tab.add_argument("--out-of-cap", type=str, default=None, help="demonstrate the refusal row")

    p_rd = sub.add_parser("root-datum", parents=[common], help="restricted-root report")
    p_rd.add_argument("file", help="catalogue name or JSON file")

    args = parser.parse_args(argv)
    handler = {
        "run": cmd_run,
        "selfcheck": cmd_selfcheck,
        "tabulate-ramified": cmd_tabulate_ramified,
        "root-datum": cmd_root_datum,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
