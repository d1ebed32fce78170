"""The seeded-fault table: every checks.FAULTS entry is a deliberate bug in
one layer that some registry check catches, and leaves nothing behind."""

import contextlib
import math

import pytest

from weilchar import checks, cli, ffield, gerardin, lattice, modp, signcalc, symplectic as sym, weil

# fault -> the registry checks it turns red, the whole registry run once in a
# fresh process (weilchar selfcheck --fault NAME); a fault without a record of
# what catches it fails test_every_fault_has_a_detection_record
GERARDIN = "gerardin.semisimple gerardin.polarized gerardin.vprime gerardin.fixed-line gerardin.weil-char "
WEIL = "weil.omega-mult weil.twisted-trace "
DETECTION = {name: set(red.split()) for name, red in {
    "sgn": "ffield.sgn-mult gerardin.semisimple gerardin.polarized-agrees signcalc.oracle signcalc.assemble "
           "signcalc.f1-forms",
    "orbit-sign-parity": "gerardin.semisimple signcalc.oracle signcalc.assemble signcalc.f1-forms",
    "restrict-map": "gerardin.polarized gerardin.polarized-agrees gerardin.vprime",
    "complement-in": "gerardin.vprime gerardin.fixed-line gerardin.weil-char",
    "one-step-vprime": "gerardin.weil-char",
    "swap-sign": "weil.omega-mult weil.normalization gerardin.semisimple gerardin.fixed-line gerardin.weil-char "
                 "signcalc.oracle",
    "snf-fixup": "lattice.snf",
    "block-sign-negated": "signcalc.oracle signcalc.f1-forms",
    "abelian-law": "symplectic.heis weil.rho",
    "split-class": "symplectic.eigen-conjugacy",
    "poly-roots-distinct": "symplectic.eigen-conjugacy",
    # the twisted traces read no rho: they do not move
    "rho-half-phase": "weil.omega-mult weil.rho weil.normalization",
    "rho-columns": "weil.omega-mult weil.svn weil.rho weil.normalization",
    "levi-sign": GERARDIN + WEIL + "weil.normalization weil.conjugacy signcalc.oracle signcalc.eta-independence "
                 "signcalc.assemble",
    "rotation-wiring": "weil.tensor-trace",
    "twisted-sign": "weil.twisted-trace",
    "twisted-loop": "weil.twisted-trace signcalc.assemble",
    "off-sample-trace": "weil.omega-mult weil.conjugacy gerardin.polarized gerardin.vprime gerardin.fixed-line",
    "fourier-scalar": WEIL + "weil.normalization gerardin.semisimple gerardin.polarized gerardin.fixed-line "
                      "signcalc.oracle signcalc.assemble",
    "trace-cross-term": GERARDIN + WEIL + "weil.conjugacy signcalc.oracle signcalc.assemble",
    "trace-support": GERARDIN + WEIL + "signcalc.oracle signcalc.assemble",
    # every model build refuses the swapped frame
    "hyperbolic-e-f": GERARDIN + WEIL + "weil.svn weil.rho weil.algebraic weil.normalization weil.conjugacy "
                      "signcalc.oracle signcalc.eta-independence signcalc.assemble",
    "case-split": "signcalc.oracle signcalc.fixed-space signcalc.f1-forms",
}.items()}

# the faults tier-1 runs over the whole registry -> the red checks that go
# red by an exception
WHOLE_REGISTRY = {
    # the oracle never calls an ffield sign function, so exactly the checks
    # that compare a quadratic-character formula go red; only the assemble
    # check's internal dual-path assertion turns the fault into an exception
    "sgn": {"signcalc.assemble"},
    "orbit-sign-parity": {"signcalc.assemble"},
    "rotation-wiring": set(),
    "poly-roots-distinct": {"symplectic.eigen-conjugacy"},
    "hyperbolic-e-f": DETECTION["hyperbolic-e-f"],
    # the three faults that patch a seam the library keeps for its rule
    "swap-sign": set(),
    "snf-fixup": set(),
    # the inverted split's pieces miss the fixed space's weight multiplicities
    "case-split": {"signcalc.oracle", "signcalc.fixed-space", "signcalc.f1-forms"},
}


def test_every_fault_has_a_detection_record():
    assert DETECTION.keys() == checks.FAULTS.keys()


@pytest.mark.parametrize("name", WHOLE_REGISTRY)
def test_fault_turns_exactly_its_checks_red(name):
    rows, _ = checks.run_checks(fault=name)
    assert {r.scenario_id for r in rows if not r.passed} == DETECTION[name]
    assert {r.scenario_id for r in rows if r.quantity == "exception"} == WHOLE_REGISTRY[name]


@pytest.mark.parametrize("name", checks.FAULTS)
def test_fault_turns_criterion_06_red_as_recorded(name):
    # weil.normalization alone: the lifted Schur intertwiner against the
    # word model, red under a fault exactly where the fresh-process run is
    rows, _ = checks.run_checks("weil.normalization", fault=name)
    assert {r.scenario_id for r in rows} == {"weil.normalization"}
    assert (not all(r.passed for r in rows)) == ("weil.normalization" in DETECTION[name])


@pytest.mark.parametrize("name", checks.FAULTS)
def test_fault_patches_one_attribute_and_restores_it(name):
    def attributes():
        spaces = (ffield, gerardin, lattice, modp, signcalc, sym, weil, weil.WeilModel)
        return {(ns.__name__, key): val for ns in spaces for key, val in vars(ns).items()}

    clean = attributes()
    for raised in (None, RuntimeError):  # a body that returns, and one that raises
        with pytest.raises(raised) if raised else contextlib.nullcontext():
            with checks.FAULTS[name]():
                inside = attributes()
                assert len([k for k in clean if inside[k] is not clean[k]]) == 1
                if raised:
                    raise raised
        after = attributes()
        assert after.keys() == clean.keys() and all(after[k] is clean[k] for k in clean)


# one pinned input per seam: the clean value, and the value under its fault


def test_swap_sign_patches_the_determinant_of_a_swap():
    swap = [[0, 1], [1, 0]]
    assert modp.det(swap, 5) == 4
    with checks.FAULTS["swap-sign"]():
        assert modp.det(swap, 5) == 1


def test_snf_fixup_patches_the_divisibility_chain():
    assert lattice.smith_normal_form([[2, 0], [0, 3]])[1] == [[1, 0], [0, 6]]
    with checks.FAULTS["snf-fixup"]():
        assert lattice.smith_normal_form([[2, 0], [0, 3]])[1] == [[2, 0], [0, 3]]


@pytest.mark.parametrize("beta, clean, faulty", [("3^2:1,1", "case1", "case2"), ("3^2:1,0", "case2", "case1")])
def test_case_split_patches_the_norm_test(beta, clean, faulty):
    # Nr(1 + x) = -1 and Nr(1) = 1 over F_3; f = 1, so no halving step
    f9 = ffield.field(3, 2)
    trace = lambda: signcalc.torus_algorithm(ffield.deserialize(beta), 1, "asym", ambient=f9).trace
    assert trace() == (clean,)
    with checks.FAULTS["case-split"]():
        assert trace() == (faulty,)


def test_unknown_fault_is_refused():
    # a misspelled fault must not run a green registry
    with pytest.raises(ValueError, match="unknown fault 'sgnn'.*sgn, orbit-sign-parity"):
        checks.run_checks("ffield.sgn-mult", fault="sgnn")
    with pytest.raises(SystemExit) as exc:
        cli.main(["selfcheck", "--fault", "nosuch"])
    assert exc.value.code == 2


def test_max_error_keeps_a_nan():
    # a running max(worst, err) from 0.0 drops a NaN wherever it falls
    assert math.isnan(checks.max_error([0.0, math.nan, 1.0]))
    assert math.isnan(checks.max_error(iter([1.0, math.nan])))
    assert checks.max_error([]) == 0.0
    assert checks.max_error(x for x in (2e-15, 3e-15, 1e-15)) == 3e-15


def test_nan_operators_fail_the_all_pairs_rows():
    # rho-columns shifts every rho column, so the group model's Schur averages
    # and with them its operators are NaN: the all-pairs products must fail;
    # linear_lift's power of the NaN determinant warns, the one warning tier-1
    # expects
    with pytest.warns(RuntimeWarning, match="invalid value"):
        rows, _ = checks.run_checks("weil.omega-mult", fault="rho-columns")
    pairs = [r for r in rows if r.quantity.startswith("omega multiplicative p=")]
    assert [r.quantity for r in pairs] == ["omega multiplicative p=%d (all pairs)" % p for p in (3, 5, 7)]
    assert all(math.isnan(r.formula) and not r.passed for r in pairs)
