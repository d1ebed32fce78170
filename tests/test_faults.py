"""The seeded-fault table: every checks.FAULTS entry is a deliberate bug in
one layer that some registry check catches, and leaves nothing behind."""

import contextlib
import math

import numpy as np
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
    # the type counts and the identity datum's descended roots go red by
    # their own comparisons, not by an exception
    "restrict-merge": "lattice.catalogue lattice.descended",
    "block-sign-negated": "signcalc.oracle signcalc.f1-forms",
    "abelian-law": "symplectic.heis weil.rho",
    "split-class": "symplectic.eigen-conjugacy",
    # the split factors' pieces lose their x^-1 orbit: the weights miss the
    # characteristic polynomial, and the sign of a degree-1 split piece asks
    # for the field of degree 0, which raises
    "split-piece-symmetric": "symplectic.weights gerardin.semisimple gerardin.polarized-agrees",
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
    # where (-1/p) = -1 the rank-1 cell's traces flip, and weil.conjugacy
    # reads Sp_2(F_3) and Sp_2(F_7), whose non-semisimple classes (and at
    # p = 7 two semisimple ones) meet both cells
    "fourier-scalar": WEIL + "weil.normalization weil.conjugacy gerardin.semisimple gerardin.polarized "
                      "gerardin.fixed-line signcalc.oracle signcalc.assemble",
    "trace-cross-term": GERARDIN + WEIL + "weil.conjugacy signcalc.oracle signcalc.assemble",
    "trace-support": GERARDIN + WEIL + "weil.conjugacy signcalc.oracle signcalc.assemble",
    # every model build refuses the swapped frame
    "hyperbolic-e-f": GERARDIN + WEIL + "weil.svn weil.rho weil.algebraic weil.normalization weil.conjugacy "
                      "signcalc.oracle signcalc.eta-independence signcalc.assemble",
    "case-split": "signcalc.oracle signcalc.fixed-space signcalc.f1-forms",
    # every generated block's twist misses the form by a sign and build_block
    # refuses it; signcalc.eta-constraint sees every legal twist refused
    "eta-target-negated": "signcalc.oracle signcalc.eta-constraint signcalc.eta-independence signcalc.fixed-space "
                          "signcalc.assemble signcalc.f1-forms",
    "fixed-line-over-fp": "signcalc.oracle signcalc.fixed-space signcalc.assemble signcalc.f1-forms",
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
    # faults that patch a seam the library keeps for its rule
    "swap-sign": set(),
    "snf-fixup": set(),
    # the inverted split's pieces miss the fixed space's weight multiplicities
    "case-split": {"signcalc.oracle", "signcalc.fixed-space", "signcalc.f1-forms"},
    # a symmetric block's fixed space comes out odd-dimensional, which the
    # block sign formula refuses
    "fixed-line-over-fp": DETECTION["fixed-line-over-fp"],
    # g restricted to a span it does not keep can be singular, and the
    # Legendre symbol of that determinant, 0, raises
    "restrict-map": {"gerardin.polarized", "gerardin.polarized-agrees", "gerardin.vprime"},
    # the Schur averages no longer intertwine rho, and both the group model
    # and the Schur intertwiner say so
    "rho-half-phase": {"weil.omega-mult", "weil.normalization"},
    "abelian-law": set(),
    "trace-cross-term": set(),
}


def test_every_fault_has_a_detection_record():
    assert DETECTION.keys() == checks.FAULTS.keys()


def test_checks_no_fault_turns_red_are_pinned():
    # the registry checks outside every DETECTION red set; a fault that
    # covers one of them, or a check no fault reaches, edits this pin
    uncovered = {name for name, _ in checks.CHECKS} - set().union(*DETECTION.values())
    assert uncovered == {"ffield.fixed-field", "ffield.lemma1", "ffield.lemma2", "ffield.sgn-norm", "lattice.pi0",
                         "signcalc.ram-empty", "symplectic.torus-maximal"}


@pytest.mark.parametrize("name", WHOLE_REGISTRY)
def test_fault_turns_exactly_its_checks_red(name):
    rows, _ = checks.run_checks(fault=name)
    assert {r.scenario_id for r in rows if not r.passed} == DETECTION[name]
    assert {r.scenario_id for r in rows if r.quantity == "exception"} == WHOLE_REGISTRY[name]


def test_warm_caches_hide_no_fault():
    # a clean registry run fills the block memo and the whole-group traces;
    # each fault that reaches the word model's reductions or its traces must
    # still turn exactly its recorded checks red in the same process
    rows, _ = checks.run_checks()
    assert all(r.passed for r in rows)
    for name in ("swap-sign", "levi-sign", "off-sample-trace", "fourier-scalar"):
        rows, _ = checks.run_checks(fault=name)
        assert {r.scenario_id for r in rows if not r.passed} == DETECTION[name], name


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
        spaces = (ffield, gerardin, lattice, modp, signcalc, sym, sym.Torus, weil, weil.WeilModel)
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


def test_restrict_merge_patches_the_restricted_roots():
    # A2 with the identity theta: six roots, six one-root orbits, six
    # restricted roots; the fault folds the sixth orbit into the first
    a2 = lattice.catalogue()["A2"]
    clean = lattice.restrict_roots(a2)
    assert len(clean.restricted) == 6
    with checks.FAULTS["restrict-merge"]():
        merged = lattice.restrict_roots(a2)
        assert len(lattice.descended_roots(a2, {a: 1 for a in a2.roots})) == 5
    first, *middle, last = clean.restricted
    assert merged.restricted[0].orbit == first.orbit + last.orbit and merged.restricted[1:] == tuple(middle)
    assert merged.by_root == clean.by_root
    assert lattice.restrict_roots(a2) == clean


@pytest.mark.parametrize("beta, clean, faulty", [("3^2:1,1", "case1", "case2"), ("3^2:1,0", "case2", "case1")])
def test_case_split_patches_the_norm_test(beta, clean, faulty):
    # Nr(1 + x) = -1 and Nr(1) = 1 over F_3; f = 1, so no halving step
    f9 = ffield.field(3, 2)
    trace = lambda: signcalc.torus_algorithm(ffield.deserialize(beta), 1, "asym", ambient=f9).trace
    assert trace() == (clean,)
    with checks.FAULTS["case-split"]():
        assert trace() == (faulty,)


def test_fixed_line_over_fp_patches_the_hilbert_90_count():
    # eta = 1, j = 0 on GF(9): K0 is GF(9), and the fixed K0-line has
    # dimension 2 over F_3; a symmetric block whose fixed space is such a
    # line then comes out odd-dimensional, which the formula refuses
    f9 = ffield.field(3, 2)
    block = next(s for _, s in checks.sign_branch_scenarios(3, 2, ffield.FIELD_CAP)
                 if s.sym_alpha and signcalc.fixed_space_dim(s) == 2)
    assert ffield.twisted_fixed_dim(f9.one(), 0) == 2
    with checks.FAULTS["fixed-line-over-fp"]():
        assert ffield.twisted_fixed_dim(f9.one(), 0) == 1
        with pytest.raises(signcalc.SignCalcError, match="odd fixed-space dimension"):
            signcalc.block_sign_formula(block)


def test_eta_target_negated_patches_the_cached_family_target():
    # the fault clears the family cache on entry and on exit, so a family
    # checked before it reads the negated target inside and the clean one after
    f3 = ffield.field(3, 1)
    act = signcalc.one_orbit_action(1, False)
    build = lambda: signcalc.OrbitScenario(act, 0, f3, f3, f3, f3, f3.one(), f3.one(), f3.one(), "asym/asym")
    build()
    with checks.FAULTS["eta-target-negated"]():
        with pytest.raises(signcalc.FormDegenerate, match="violates form preservation"):
            build()
        assert signcalc.family_target(act, 0, f3, f3, f3, f3, f3.one(), "asym/asym") == -1
    build()


def test_restrict_map_patches_the_invariance_test():
    # span((1, 1)) is not invariant under diag(2, 3) in Sp_2(F_5)
    g = sym.sp_elem(sym.standard_polarized_space(5, 1), ((2, 0), (0, 3)))
    with pytest.raises(gerardin.GerardinError, match="not invariant"):
        gerardin.restrict_map(g, [(1, 1)])
    with checks.FAULTS["restrict-map"]():
        assert gerardin.restrict_map(g, [(1, 1)]).tolist() == [[0]]


def test_orbit_sign_parity_patches_the_count_of_moving_orbits():
    # -1 on the norm-one torus of Sp_2(F_3): one symmetric piece, x = -1
    torus = sym.Torus(3, ((1, True),))
    [t] = [t for t in torus.elements() if t.elem.mat.tolist() == [[2, 0], [0, 2]]]
    assert gerardin.orbit_sign(t.pieces, 0) == -1
    with checks.FAULTS["orbit-sign-parity"]():
        assert gerardin.orbit_sign(t.pieces, 0) == 1


def test_split_piece_symmetric_patches_the_torus_pieces():
    # diag(2, 3) on the split torus of Sp_2(F_5): one asymmetric piece, whose
    # x^-1 the weights need; the matrix does not move
    torus = sym.Torus(5, ((1, False),))
    x = ffield.field(5, 1).from_int(2)
    t = torus.element((x,))
    assert t.pieces == (sym.TorusPiece(1, x, False),) and sym.weight_charpoly_check(t)
    with checks.FAULTS["split-piece-symmetric"]():
        bad = torus.element((x,))
        assert bad.pieces == (sym.TorusPiece(1, x, True),) and bad.elem == t.elem
        assert not sym.weight_charpoly_check(bad)
        assert all(pc.symmetric for u in torus.elements() for pc in u.pieces)
    assert torus.element((x,)) == t


def test_abelian_law_patches_the_cocycle():
    # (e, 0)(f, 0) = (e + f, <e, f>/2) with <e, f>/2 = 2 in F_3
    v3 = sym.standard_polarized_space(3, 1)
    assert int(sym.heis_law(v3, (1, 0), 0, (0, 1), 0)[1]) == 2
    with checks.FAULTS["abelian-law"]():
        assert int(sym.heis_law(v3, (1, 0), 0, (0, 1), 0)[1]) == 0


def test_rho_half_phase_patches_the_half_pairing():
    # row t = 0 of rho((1, 1), 0) on F_3 carries psi(<x, y>/2) = psi(2)
    model, psi = weil.WeilModel(sym.standard_polarized_space(3, 1)), modp.theta_values(3)
    assert model.rho_parts([1, 1], 0)[1][0] == psi[2]
    with checks.FAULTS["rho-half-phase"]():
        assert model.rho_parts([1, 1], 0)[1][0] == psi[0]


def test_trace_cross_term_patches_the_cross_phase():
    # the Weyl element of Sp_2(F_3) is on the rank-1 cell: Q = 1 with the
    # cross term, 0 without it, and tr omega(w) moves from 1 to -i sqrt 3
    model = weil.WeilModel(sym.standard_polarized_space(3, 1))
    w = sym.sp_elem(model.space, ((0, 1), (2, 0)))
    phase = lambda: weil._trace_phase(model.normal_forms([w])[0][1], 3).tolist()
    assert phase() == [[[1]]] and abs(model.trace_omega(w) - 1) < 1e-12
    with checks.FAULTS["trace-cross-term"]():
        assert phase() == [[[0]]] and abs(model.trace_omega(w) + 3**0.5 * 1j) < 1e-12


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


def test_nan_operators_fail_the_all_pairs_rows(monkeypatch):
    # a lift that returns NaN leaves every operator of the group model NaN
    # (the anchors' products too): the all-pairs products must fail
    monkeypatch.setattr(weil, "linear_lift", lambda m0, ords: np.full_like(m0, np.nan))
    rows, _ = checks.run_checks("weil.omega-mult")
    pairs = [r for r in rows if r.quantity.startswith("omega multiplicative p=")]
    assert [r.quantity for r in pairs] == ["omega multiplicative p=%d (all pairs)" % p for p in (3, 5, 7)]
    assert all(math.isnan(r.formula) and not r.passed for r in pairs)


@pytest.mark.parametrize("name", ["rho-half-phase", "rho-columns"])
def test_group_model_refuses_a_rho_that_does_not_intertwine(name):
    # the Schur averages are probed before linear_lift scales them, so under
    # either rho fault the build raises and weil.omega-mult reports one
    # exception row, not lifted non-intertwiners
    with checks.FAULTS[name]():
        model = weil.WeilModel(sym.standard_polarized_space(5, 1))
        with pytest.raises(weil.WeilError, match="fails to intertwine"):
            model.build_group_model()
        [row] = checks.run_checks("weil.omega-mult")[0]
    assert row.quantity == "exception" and not row.passed
