"""src/plateflow holds only what plateflow runs: every definition there is
used by the package itself, its scripts or its benchmark, not only by the
tests, and so is every parameter with a default.  Definitions that only tests
use live in tests/oracles.py.  No module imports a name it does not use, and
every error class of the package reaches the user of the CLI as an error line."""

import ast
import dataclasses
import importlib
import re
from collections import Counter
from pathlib import Path

from plateflow import cli, config, modal, verification

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "plateflow").glob("*.py"))
USERS = SRC + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree):
    """(name, first line, last line) of each module-level function, class and
    assigned name, and of each method of a module-level class whose name does
    not start with __."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("__"):
                    yield item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                yield name, node.lineno, node.end_lineno


def _identifiers(tree):
    """(identifier, line) of each name the code of tree reads or defines: its
    names and attributes (f-string fields included), import aliases and
    definition names, and the words of each string constant that is not a
    docstring (a "module:qual" target names its definition).  Comments and
    docstrings name nothing."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in re.findall(r"\w+", node.name) + [node.asname] * bool(node.asname):
                yield name, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            for name in re.findall(r"\w+", node.value):
                yield name, node.lineno


def test_every_definition_in_src_is_used_outside_the_tests():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in USERS}
    found = {p: list(_identifiers(tree)) for p, tree in trees.items()}
    total = Counter(name for names in found.values() for name, _ in names)
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path in SRC
              for name, first, last in _definitions(trees[path])
              if total[name] == sum(w == name and first <= line <= last
                                    for w, line in found[path])]
    assert not unused, ("defined in src/plateflow but named nowhere else in src/plateflow, "
                        "scripts or perfbench (move it to tests/oracles.py or delete it):\n"
                        + "\n".join(unused))


def _parameters(call_name, func, method):
    """(call name, parameter, position) of each parameter of func with a default;
    positions count from the first argument a call passes, after a method's
    self or cls, and a keyword-only parameter has none."""
    args = func.args
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], first):
        yield call_name, a.arg, i
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield call_name, a.arg, float("inf")


def _fields(cls):
    """(class name, field, position) of each dataclass field of cls with a
    default that its __init__ takes."""
    position = 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value, keywords = item.value, {}
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            value = keywords.get("default", keywords.get("default_factory"))
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        if value is not None:
            yield cls.name, item.target.id, position
        position += 1


def _defaulted(tree, skip):
    """Every parameter of a module-level function or method, and every
    dataclass field, with a default, outside the classes named in skip; a
    method is called by its name, __init__ and the fields by the class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _parameters(node.name, node, method=False)
        elif isinstance(node, ast.ClassDef) and node.name not in skip:
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                yield from _fields(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = node.name if item.name == "__init__" else item.name
                    yield from _parameters(name, item, method=True)


def _calls(tree):
    """(name, positional argument count, keyword names) of every call f(...)
    or x.f(...); a *args counts as every position and a **kwargs as every
    keyword (None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            kw = {k.arg for k in node.keywords}
            yield name, float("inf") if starred else len(node.args), None if None in kw else kw


# the classes parse_config fills from the experiment file take every field
# from there, not from a call
SKIP = {"ExperimentConfig", *(type(s).__name__ for s in vars(config.ExperimentConfig()).values())}


def _defaults_and_calls():
    """(path, name, parameter, whether a call sets it) of each defaulted
    parameter in src/plateflow, per call of that name in src/plateflow,
    scripts and perfbench."""
    calls = [c for p in USERS for c in _calls(ast.parse(p.read_text(encoding="utf-8")))]
    for path in SRC:
        for name, param, position in _defaulted(ast.parse(path.read_text(encoding="utf-8")), SKIP):
            yield path, name, param, [position < n or kw is None or param in kw
                                      for c, n, kw in calls if c == name]


def test_every_defaulted_parameter_in_src_is_set_outside_the_tests():
    unset = [f"{path.relative_to(ROOT)}: {name}({param})"
             for path, name, param, sets in _defaults_and_calls() if not any(sets)]
    assert not unset, ("parameters with a default in src/plateflow that no call in src/plateflow, "
                       "scripts or perfbench sets (make each the constant the program uses):\n"
                       + "\n".join(unset))


def test_every_default_in_src_is_relied_on_outside_the_tests():
    unused = [f"{path.relative_to(ROOT)}: {name}({param})"
              for path, name, param, sets in _defaults_and_calls() if all(sets)]
    assert not unused, ("parameters with a default in src/plateflow that every call in "
                        "src/plateflow, scripts and perfbench sets (drop the default):\n"
                        + "\n".join(unused))


IMPORTERS = SRC + sorted(p for d in ("tests", "scripts", "perfbench", "perfbench/tests")
                         for p in (ROOT / d).glob("*.py"))


def test_every_module_level_import_is_used():
    unused = []
    for path in IMPORTERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                unused += [f"{path.relative_to(ROOT)}: {name}"
                           for name in (a.asname or a.name.split(".")[0] for a in node.names)
                           if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# the probes whose values the battery's checks judge, by module
PROBES = {
    "dynamics": ("energy_balance_residual", "lyapunov_eps_scan", "quasi_stability_probe",
                 "attractor_regularity_probe"),
    "forces": ("verify_gradient", "verify_coercivity"),
    "spectrum": ("semigroup_consistency", "gamma_operator_checks", "contraction_norm"),
    "steady": ("distance_to_equilibrium",),
}


def _numeric_literals(node) -> list:
    """The numeric literals in an expression, other than in a subscript's index."""
    if isinstance(node, ast.Subscript):
        return _numeric_literals(node.value)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return [node.value]
    return [c for child in ast.iter_child_nodes(node) for c in _numeric_literals(child)]


def test_no_check_or_probe_states_a_bound():
    # verification.BOUNDS is the one place a verdict's bound is stated: no
    # comparison in a check, or in a probe it calls, has a numeric literal in
    # an operand, except in the test of an if that only raises (a precondition)
    checks = tuple(check.__name__ for check in verification._CHECKS.values())
    functions = {"verification": checks, **PROBES}
    found = []
    for module, names in functions.items():
        tree = ast.parse((ROOT / "src" / "plateflow" / f"{module}.py").read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert set(names) <= set(defs), f"{module}: no function {set(names) - set(defs)}"
        for name in names:
            guards = {id(n) for node in ast.walk(defs[name]) if isinstance(node, ast.If)
                      and all(isinstance(b, ast.Raise) for b in node.body)
                      for n in ast.walk(node.test)}
            found += [f"{module}.{name}: {ast.unparse(node)}" for node in ast.walk(defs[name])
                      if isinstance(node, ast.Compare) and id(node) not in guards
                      and any(_numeric_literals(o) for o in [node.left, *node.comparators])]
    assert not found, "comparisons that state a bound outside verification.BOUNDS:\n" + \
        "\n".join(found)


# the eigen-data of a modal basis: modal.py makes them, build_modal_basis
# returns them beside the basis, and only cli.py's cmd_modes reports them
EIGEN_DATA = {"mu", "kappa", "psi_res", "xi_res"}


def _reads_eigen_data(tree):
    """The nodes of tree, outside a function cmd_modes, that read eigen-data:
    an attribute of that name on anything but self, or a build_modal_basis
    call of which more than the basis, [0], is used."""
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and f.name == "cmd_modes" for n in ast.walk(f)}
    basis_only = {id(n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Subscript) and ast.unparse(n.slice) == "0"}
    return [node for node in ast.walk(tree) if id(node) not in skip and (
        isinstance(node, ast.Attribute) and node.attr in EIGEN_DATA
        and ast.unparse(node.value) != "self"
        or isinstance(node, ast.Call) and id(node) not in basis_only
        and ast.unparse(node.func).split(".")[-1] == "build_modal_basis")]


def test_the_reduced_system_reads_no_eigen_data():
    # the reduced system, its stationary states, dynamics, spectrum, battery
    # and force norms read the Gram tables of the trial space, so any basis of
    # it serves: outside modal.py and cmd_modes, nothing may read which
    # eigenvalues its modes have
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in SRC if path.stem != "modal"
             for node in _reads_eigen_data(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, "eigen-data read outside modal.py and cmd_modes:\n" + "\n".join(found)


def test_the_trial_space_type_holds_no_eigen_data():
    # a basis of the trial space is its grid, its stacks of flow and plate
    # modes and the liftings of the plate modes, whatever basis it is
    assert [f.name for f in dataclasses.fields(modal.ModalBasis)] == ["grid", "psi", "xi", "lift"]


def test_every_error_class_reaches_the_user_as_an_error_line():
    # cli.main prints ConfigError and each class in its except tuple as one
    # "error:" line with exit 2; any other error class in src/plateflow would
    # reach the user as a traceback
    main = next(node for node in ast.parse((ROOT / "src" / "plateflow" / "cli.py")
                                           .read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = tuple(getattr(cli, name.id) for node in ast.walk(main)
                   if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple)
                   for name in node.type.elts)
    assert caught, "cli.main has no except tuple"
    uncaught = [f"{path.stem}.{name}"
                for path in SRC
                for name, obj in vars(importlib.import_module(f"plateflow.{path.stem}")).items()
                if isinstance(obj, type) and issubclass(obj, BaseException)
                and obj.__module__ == f"plateflow.{path.stem}"
                and obj is not config.ConfigError and not issubclass(obj, caught)]
    assert not uncaught, ("error classes that cli.main does not report (add each to its except "
                          "tuple):\n" + "\n".join(uncaught))


def _forms_a_derived_table(node) -> bool:
    """Whether node forms one of GalerkinSystem's derived tables: the plate
    mass table (h_x xi or hXi times xi.T), M's eigenvalues, or the plate load
    (pstar with f_plate)."""
    names = {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
             if isinstance(n, (ast.Attribute, ast.Name))}
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        right = node.right
        return (isinstance(right, ast.Attribute) and right.attr == "T"
                and "xi" in ast.unparse(right.value) and bool({"h_x", "hXi"} & names))
    if isinstance(node, ast.BinOp):
        return {"pstar", "f_plate"} <= names
    return (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1].startswith("eig")
            and any(isinstance(a, ast.Attribute) and a.attr == "M" for a in node.args))


def test_only_galerkin_forms_the_systems_derived_tables():
    # GalerkinSystem forms its plate mass table Mp, M's spectrum M_eigenvalues
    # and its plate_load once; every other module reads the system's copies
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in SRC if path.stem != "galerkin"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _forms_a_derived_table(node)]
    assert not found, "derived tables of GalerkinSystem formed outside galerkin.py:\n" + \
        "\n".join(found)


def _binds_a_force_to_the_plate_modes(node) -> bool:
    """Whether node forms the plate quadrature (h_x times xi) or calls a force
    model's modal form (.modal(...))."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left, right = ({n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(side)
                        if isinstance(n, (ast.Attribute, ast.Name))}
                       for side in (node.left, node.right))
        return ("h_x" in left and "xi" in right) or ("xi" in left and "h_x" in right)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "modal")


def test_only_galerkin_binds_a_force_model_to_the_plate_modes():
    # assemble forms the plate quadrature hXi = h_x xi once, and
    # GalerkinSystem.plate_force hands it to the model's modal form; every
    # other module reads the system's hXi and its plate_force
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in SRC if path.stem != "galerkin"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _binds_a_force_to_the_plate_modes(node)]
    assert not found, "plate quadrature or modal force formed outside galerkin.py:\n" + \
        "\n".join(found)


def _adds_the_mode_counts(node) -> bool:
    """Whether node adds the flow and plate mode counts: an m on one side of a
    + and an n on the other, as m + n or sys.m + 2 * sys.n."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    left, right = ({n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(side)
                    if isinstance(n, (ast.Attribute, ast.Name))}
                   for side in (node.left, node.right))
    return ("m" in left and "n" in right) or ("n" in left and "m" in right)


def test_only_galerkin_knows_the_state_layout():
    # GalerkinSystem states the slices beta and betadot of y = (alpha, beta,
    # betadot) and the indices kin once; every other module indexes a state
    # through them, so that a system with another layout states only its own
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in SRC if path.stem != "galerkin"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _adds_the_mode_counts(node)]
    assert not found, "mode counts added outside galerkin.py (index through GalerkinSystem's " \
        "beta, betadot and kin):\n" + "\n".join(found)
