"""The formula side and the oracle side stay independent.

gerardin and signcalc evaluate closed forms; weil builds Weil operators by
brute force.  A formula that read an oracle value, or an oracle that read a
closed form, would make their agreement prove nothing.  The static half walks
the module syntax trees; the runtime half runs the formula entry points with
the oracle's constructors replaced by raising stubs."""

import ast
import builtins
import pathlib
import re

import numpy as np
import pytest

from weilchar import checks, gerardin, modp, signcalc as sc, symplectic as sym, weil

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weilchar"
BRANCHES = {"asym/asym", "asym/sym-ur", "asym/sym-ram", "sym-ur/sym-ur", "sym-ur/sym-ram"}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / (module + ".py")).read_text())


def _names(node) -> set[str]:
    """The names a node refers to: bare names, attributes, the names an
    import binds, and the last part of every module it imports from."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(filter(None, (sub.name.rpartition(".")[2], sub.asname)))
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            out.add(sub.module.rpartition(".")[2])
    return out


def _sgn_calls(node) -> list[str]:
    """ffield.sgn_* read as an attribute or imported by name."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr.startswith("sgn_") and isinstance(sub.value, ast.Name) \
                and sub.value.id == "ffield":
            found.append("ffield." + sub.attr)
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").endswith("ffield"):
            found += ["ffield." + a.name for a in sub.names if a.name.startswith("sgn_") or a.name == "*"]
    return found


def _outside(tree: ast.Module, exempt: str) -> list[ast.stmt]:
    """The module's top-level statements other than the function `exempt`."""
    kept = [node for node in tree.body if not (isinstance(node, ast.FunctionDef) and node.name == exempt)]
    assert len(kept) == len(tree.body) - 1, "no top-level function %s" % exempt
    return kept


def test_gerardin_never_names_weil():
    assert "weil" not in _names(_tree("gerardin"))


def test_signcalc_names_weil_only_in_full_space_oracle():
    # full_space_oracle stays in signcalc under that name: the benchmark's
    # tracer wraps it there
    tree = _tree("signcalc")
    assert "weil" not in set().union(*map(_names, _outside(tree, "full_space_oracle")))
    oracle = next(node for node in tree.body if getattr(node, "name", None) == "full_space_oracle")
    assert "weil" in _names(oracle)


def test_weil_reads_no_closed_form():
    tree = _tree("weil")
    assert not {"gerardin", "signcalc"} & _names(tree)
    assert _sgn_calls(tree) == []


def _exp_callers(tree: ast.Module) -> list[str]:
    """The top-level definitions of a module that call an exp (np.exp,
    cmath.exp, a bare exp), once per call."""
    return [getattr(node, "name", "<module>") for node in tree.body for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and "exp" in (getattr(sub.func, "attr", None), getattr(sub.func, "id", None))]


def test_psi_is_computed_only_in_theta_values():
    # psi(z) = exp(2 pi i z / p) exists once; every phase elsewhere is an
    # integer mod p that indexes modp.theta_values
    calls = [path.stem + "." + name for path in sorted(SRC.glob("*.py")) for name in _exp_callers(ast.parse(path.read_text()))]
    assert calls == ["modp.theta_values"]


@pytest.mark.parametrize("source,found", [
    ("def f(z):\n    return np.exp(2j * z)", ["f"]),
    ("from cmath import exp\nclass C:\n    def g(self):\n        return exp(1j)", ["C"]),
    ("def f(desc):\n    return desc._exp[np.expm1(0)]", []),
])
def test_exp_rule_sees_every_spelling(source, found):
    assert _exp_callers(ast.parse(source)) == found


# the word model's construction: the group model and the Schur average must
# reach none of it, so that comparing the two oracles shows a fault in either
WORD_MODEL = {"word_factors", "WordFactors", "omega_word", "trace_omega", "_fourier", "_fourier_entries",
              "_fourier_scalar", "gauss_sum", "normal_forms", "_cell_forms", "trace_stack", "_cell_traces",
              "omega_stack", "_cell_operators", "_stacked"}
GROUP_MODEL = ("build_group_model", "schur_intertwiner", "_schur_average", "linear_lift")


def _reached(tree: ast.Module, roots) -> set[str]:
    """The names the functions `roots` refer to, following every call of
    another function or method defined in the module."""
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    todo, seen, names = list(roots), set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        found = _names(defs[name])
        names |= found
        todo += [n for n in found if n in defs]
    return names


def test_group_model_reaches_no_word_model():
    assert not WORD_MODEL & _reached(_tree("weil"), GROUP_MODEL)


def test_reach_rule_follows_helpers():
    source = "def f(m):\n    return g(m)\n\nclass M:\n    def g(self):\n        return self.word_factors(1)"
    assert "word_factors" in _reached(ast.parse(source), ["f"])
    assert "word_factors" not in _reached(ast.parse(source.replace("g(m)", "h(m)")), ["f"])


@pytest.mark.parametrize("source,broken", [
    ("from . import ffield, weil", True),
    ("from .weil import WeilModel", True),
    ("import weilchar.weil", True),
    ("from weilchar import weil as w", True),
    ("def f(x):\n    return weil.theta(x)", True),
    ("import weilchar\nweilchar.weil.WeilModel", True),
    ("from . import ffield\nweil_char = 1", False),
])
def test_firewall_rules_see_every_spelling(source, broken):
    # each way of reaching the oracle module from a formula module
    assert ("weil" in _names(ast.parse(source))) == broken


@pytest.mark.parametrize("source,found", [
    ("ffield.sgn_mult(x, k)", ["ffield.sgn_mult"]),
    ("from .ffield import sgn_norm_one", ["ffield.sgn_norm_one"]),
    ("from .ffield import *", ["ffield.*"]),
    ("ffield.field(3, 1)", []),
])
def test_sgn_rule_sees_every_spelling(source, found):
    assert _sgn_calls(ast.parse(source)) == found


# ---------------------------------------------------------------------------
# runtime twin: the formula entry points with the oracle's constructors gone


@pytest.fixture(scope="module")
def samples():
    """Inputs built before the oracle goes away (a cell element needs a model)."""
    blocks = [(label, s) for p in (3, 5) for label, s in checks.sign_branch_scenarios(p, 4, eta_cap=2)]
    tori = [sym.Torus(p, ((1, norm_one),)) for p in (3, 5) for norm_one in (False, True)]
    tori += [sym.Torus(3, ((1, True), (1, False))), sym.Torus(3, ((2, True),))]
    semisimple = [g for p in (3, 5) for g in sym.sp_elements(sym.standard_polarized_space(p, 1)) if g.is_semisimple()]
    # Sp_4(F_3): a fixed line beside a fixed-point-free block, and
    # cell-element conjugates of Levi elements without fixed points
    v2 = sym.standard_polarized_space(3, 1)
    for g1 in sym.sp_elements(v2):
        if g1.is_semisimple() and not g1.fixed_space_dim():
            semisimple.append(sym.block_diagonal(sym.direct_sum([v2, v2]), [g1.mat, np.eye(2, dtype=np.int64)]))
    model = weil.WeilModel(sym.standard_polarized_space(3, 2))
    rng = np.random.default_rng(0)
    a = np.array([[0, 1], [1, 1]])  # x^2 - x - 1, irreducible over F_3
    levi = sym.sp_elem(model.space, model.from_std @ np.block([[a, 0 * a], [0 * a, modp.mat_inv(a, 3).T]]) @ model.to_std)
    for r in range(3):
        c = checks.cell_element(model, r, rng)
        semisimple.append(c * levi * c.inverse())
    return blocks, tori, semisimple


@pytest.fixture
def no_oracle(monkeypatch):
    """weil.WeilModel, block_twist and twisted_trace replaced by stubs that
    raise and record the call, so a swallowed exception still shows."""
    reached = []

    def stub(name):
        def refuse(*args, **kwargs):
            reached.append(name)
            raise AssertionError("formula code reached weil.%s" % name)
        return refuse

    for name in ("WeilModel", "block_twist", "twisted_trace"):
        monkeypatch.setattr(weil, name, stub(name))
    return reached


@pytest.fixture
def no_block(no_oracle, monkeypatch):
    """signcalc.build_block replaced by a stub that raises and records the
    call in no_oracle's list."""

    def refuse(*args, **kwargs):
        no_oracle.append("build_block")
        raise AssertionError("formula code reached signcalc.build_block")

    monkeypatch.setattr(sc, "build_block", refuse)


def test_sign_formulas_call_no_oracle(samples, no_oracle, no_block):
    """Nor do the sign formulas build the block: its fixed-space dimension
    is signcalc.fixed_space_dim's closed form, so build_block is a stub too."""
    blocks, _, _ = samples
    seen = set()
    for label, s in blocks:
        value = sc.block_sign_formula(s).value
        const = sc.f1_constant(s)
        if s.classification.endswith("sym-ram"):
            want = modp.legendre(-2, s.p) ** s.k_res.degree
            assert value == want and const == want, label
        seen.add(s.classification)
    assert seen == BRANCHES
    assert no_oracle == []
    # the oracle side does reach the stub
    s = blocks[0][1]
    with pytest.raises(AssertionError, match="signcalc.build_block"):
        sc.full_space_oracle(s.action, {0: s}, {0: s.k_alpha.one()})
    assert no_oracle == ["build_block"]


def test_assembly_calls_no_oracle(samples, no_oracle, no_block):
    """Nor does assembly build a block: twisted_scenario computes eta' by
    field arithmetic, so build_block is a stub too."""
    blocks, _, _ = samples
    seen = set()
    for label, s in blocks:
        asm = sc.assemble_product(s.action, {0: s}, {0: s.k_alpha.one()})
        assert abs(asm.value - sc.block_sign_formula(s).value) < 1e-12, label
        seen.add(s.classification)
    assert seen == BRANCHES
    assert no_oracle == []
    # the oracle-side comparison does reach the stub
    s = blocks[0][1]
    with pytest.raises(AssertionError, match="signcalc.build_block"):
        sc.full_space_oracle(s.action, {0: s}, {0: s.k_alpha.one()})
    assert no_oracle == ["build_block"]


def test_character_formulas_call_no_oracle(samples, no_oracle):
    _, tori, semisimple = samples
    for torus in tori:
        for t in torus.elements():
            gerardin.char_semisimple(t)
    lines = 0
    for g in semisimple:
        gerardin.weil_char(g)
        lines += g.fixed_space_dim() > 0
    assert 0 < lines < len(semisimple)  # both the fixed-line and the fixed-point-free path
    assert no_oracle == []


def test_package_holds_no_assert():
    # python -O strips asserts, so a check that guards a result must raise;
    # the scripts compare formula and oracle too
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    found = ["%s:%d" % (path.name, node.lineno) for path in paths
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


# ---------------------------------------------------------------------------
# no API that nothing calls: every definition of the package has a reader in
# the package, the scripts or the benchmark, tests apart

# dataclass fields that only tests read: a Restriction's projection rows and
# root map, pinned by the lattice digests, and the factored formula's parts
TEST_ONLY_FIELDS = {"lattice.Restriction.proj_rows", "lattice.Restriction.by_root", "signcalc.Assembled.c_eta",
                    "signcalc.Assembled.ur_count", "signcalc.Assembled.v_factor"}
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names, attributes) a module reads: the bare names it loads or
    imports, and the attributes it loads together with each part of a
    dotted-name string (the tracer's TARGETS, the FAULTS paths, getattr's
    names).  A store or a keyword argument is no read."""
    names, attrs = set(), set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and DOTTED.match(sub.value):
            attrs.update(sub.value.split("."))
    return names, attrs


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name, is_field) of each top-level function, each
    method but a dunder, and each field of a dataclass of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield "%s.%s" % (module, node.name), node.name, False
        elif isinstance(node, ast.ClassDef):
            is_dataclass = any("dataclass" in _names(dec) for dec in node.decorator_list)
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield "%s.%s.%s" % (module, node.name, sub.name), sub.name, False
                elif is_dataclass and isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield "%s.%s.%s" % (module, node.name, sub.target.id), sub.target.id, True


def _unread(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The definitions of modules that no reader reads: a function or method
    by name or attribute, a field by attribute only (a local variable of a
    field's name reads nothing)."""
    names, attrs = set(), set()
    for tree in readers:
        n, a = _reads(tree)
        names |= n
        attrs |= a
    return [qual for module, tree in modules.items() for qual, name, is_field in _definitions(tree, module)
            if name not in (attrs if is_field else names | attrs)]


def _package_and_readers() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The package's modules by name, and every module that may read them:
    the package's own, the scripts and the benchmark."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readers = list(modules.values()) + [ast.parse(path.read_text()) for folder in ("scripts", "perfbench")
                                        for path in sorted((ROOT / folder).glob("*.py"))]
    return modules, readers


def test_every_definition_has_a_reader():
    modules, readers = _package_and_readers()
    assert set(_unread(modules, readers)) == TEST_ONLY_FIELDS


@pytest.mark.parametrize("source,unread", [
    ("def f():\n    pass", ["m.f"]),
    ("def f():\n    pass\n\nRUN = {'f': f}", []),
    ("def f():\n    pass\n\nTARGETS = (('m', 'f', 'm.f'),)", []),
    ("class C:\n    def g(self):\n        pass\n\n    def __eq__(self, other):\n        return self.h()", ["m.C.g"]),
    ("@dataclass(frozen=True)\nclass C:\n    x: int\n\nx = 1\nRUN = x", ["m.C.x"]),
    ("@dataclass\nclass C:\n    x: int\n\nRUN = C(1).x", []),
    ("class C:\n    x: int", []),
], ids=["unread", "named", "target-string", "method", "field-name", "field-attribute", "plain-class"])
def test_reader_rule_sees_every_spelling(source, unread):
    tree = ast.parse(source)
    assert _unread({"m": tree}, [tree]) == unread


# no exception class that no caller tells apart: every exception class of the
# package is named by an except clause in the package, the scripts or the
# benchmark; a refusal nothing catches by its own class raises its module's
# error
BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}


def _exception_classes(modules: dict[str, ast.Module]) -> dict[str, str]:
    """{name: module.name} of each top-level class of modules that derives
    from a built-in exception, directly or through other such classes."""
    classes = {node.name: ("%s.%s" % (module, node.name), set().union(*map(_names, node.bases)))
               for module, tree in modules.items() for node in tree.body if isinstance(node, ast.ClassDef)}
    found: dict[str, str] = {}
    while True:
        new = {name: qual for name, (qual, bases) in classes.items()
               if name not in found and bases & (BUILTIN_EXCEPTIONS | found.keys())}
        if not new:
            return found
        found.update(new)


def _uncaught(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The exception classes of modules that no except clause of a reader
    names, bare or as an attribute, alone or in a tuple."""
    caught = set().union(*(_names(sub.type) for tree in readers for sub in ast.walk(tree)
                           if isinstance(sub, ast.ExceptHandler) and sub.type is not None))
    return sorted(qual for name, qual in _exception_classes(modules).items() if name not in caught)


def test_every_exception_class_is_caught_by_name():
    modules, readers = _package_and_readers()
    assert _uncaught(modules, readers) == []
    # the rule sees the classes it rules on: each module's error, and the two
    # refusals a caller tells apart
    assert set(_exception_classes(modules).values()) == {
        "cli.ScenarioValidationError", "ffield.FieldError", "gerardin.GerardinError", "lattice.LatticeError",
        "signcalc.SignCalcError", "signcalc.FormDegenerate", "symplectic.SymplecticError", "weil.WeilError"}


@pytest.mark.parametrize("source,uncaught", [
    ("class E(Exception):\n    pass", ["m.E"]),
    ("class E(ValueError):\n    pass\n\ntry:\n    pass\nexcept E:\n    pass", []),
    ("class E(Exception):\n    pass\n\nclass F(E):\n    pass\n\ntry:\n    pass\nexcept E:\n    pass", ["m.F"]),
    ("class F(E):\n    pass\n\nclass E(Exception):\n    pass\n\ntry:\n    pass\nexcept (m.F, E) as exc:\n    pass", []),
    ("class C:\n    pass\n\nclass D(C):\n    pass", []),
], ids=["uncaught", "caught", "subclass", "tuple-attribute", "not-an-exception"])
def test_exception_rule_sees_every_spelling(source, uncaught):
    tree = ast.parse(source)
    assert _uncaught({"m": tree}, [tree]) == uncaught
