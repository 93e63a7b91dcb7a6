"""Every module of the package, the tests and the scripts uses every
name it imports, each package module imports only the modules its
layer may read, only `report.py` decides a clause's verdict, every
public method of a record class is read by a package module, a script
or a bench file, and every name the package exports and every field of
a record is read by one of them or is listed with the reason it stays.
Every function the traced bench run wraps exists under the name it
wraps, a record is built past its constructor only where `record.py`
says so, and a certificate is built only where it is decided or proved
from certified factors.

No linter ships with the package, so this stands in for an
unused-import check: a name bound by an import must be read somewhere
in the module, in code or in a quoted annotation.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "roughtop"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# a package module by its file name, any other file by its path from the root
IMPORTERS = {name: SRC / name for name in MODULES} | {
    f"{d}/{p.name}": p for d in ("tests", "scripts") for p in sorted((ROOT / d).glob("*.py"))}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


@pytest.mark.parametrize("name", IMPORTERS)
def test_module_uses_every_import(name):
    tree = ast.parse(IMPORTERS[name].read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    imported.pop("annotations", None)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    unused = sorted((line, bound) for bound, line in imported.items() if bound not in used)
    assert unused == [], f"{name} imports names it never uses: {unused}"


def _private_definitions(tree):
    """Module-level private functions, classes and constants: names
    with one leading underscore, bound by a def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for bound in names:
            if bound.startswith("_") and not bound.startswith("__"):
                yield node.lineno, bound


def _reads(tree):
    """Every name the module reads, bare or as an attribute."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


TREES = {name: ast.parse((SRC / name).read_text(encoding="utf-8"))
         for name in MODULES + ["__init__.py"]}
READS = {bound for tree in TREES.values() for bound in _reads(tree)}


@pytest.mark.parametrize("name", MODULES)
def test_module_private_helpers_are_read(name):
    unread = [(line, bound) for line, bound in _private_definitions(TREES[name])
              if bound not in READS]
    assert unread == [], f"{name} defines private names nothing reads: {unread}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_module_imports_no_private_name_of_another(name):
    """A package module's underscore names are its own: no other one
    imports them, by a relative or an absolute import."""
    private = [(node.lineno, f"{node.module}.{alias.name}")
               for node in ast.walk(TREES[name]) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("roughtop"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == [], f"{name} imports private names: {private}"


# The package modules each module may import.  Each reads only layers
# below it; `topology` answers with values and witness strings, so it
# reads no report, and each check builds its own clauses from them.
MAY_IMPORT = {
    "errors.py": set(),
    "record.py": set(),
    "approx.py": {"errors", "record"},
    "report.py": {"record"},
    "topology.py": {"approx", "errors", "record"},
    "groups.py": {"approx", "errors", "report", "topology"},
    "trg.py": {"approx", "errors", "groups", "report", "topology"},
    "actions.py": {"approx", "errors", "groups", "record", "report", "topology", "trg"},
    "homs.py": {"groups", "report", "topology", "trg"},
    "parser.py": {"approx", "errors", "topology"},
    "cli.py": {"actions", "approx", "errors", "groups", "homs", "parser", "report",
               "topology", "trg"},
    "__main__.py": {"cli"},
}


def _package_imports(tree):
    """The package modules a module imports by `from .x import ...` or
    `from . import x`, or the same through `roughtop` by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "roughtop":
                    continue
                module = module[len("roughtop."):]
            yield from [module.split(".")[0]] if module else (a.name for a in node.names)


def test_layer_table_lists_every_module():
    assert sorted(MAY_IMPORT) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_its_layers(name):
    extra = sorted(set(_package_imports(TREES[name])) - MAY_IMPORT[name])
    assert extra == [], f"{name} imports modules its layer may not read: {extra}"


# Verdict constants a package module other than report.py may name:
# every other clause verdict comes from `report.law`, `report.premise`
# or `report.combine`.  cli.py marks each listed topology `trg=pass` or
# `trg=fail`, which are words of an info clause, not verdicts.
VERDICT_NAMERS = {"NOT_APPLICABLE": (), "FAIL": ("cli.py",)}


@pytest.mark.parametrize("name", sorted(set(TREES) - {"report.py"}))
def test_only_report_names_fail_and_not_applicable(name):
    names = set(_reads(TREES[name])) | {
        n.id for n in ast.walk(TREES[name]) if isinstance(n, ast.Name)}
    named = sorted(word for word, allowed in VERDICT_NAMERS.items()
                   if word in names and name not in allowed)
    assert named == [], f"{name} names verdicts that report.py decides: {named}"


# The package modules other than `__init__.py`, the scripts and the bench files.
READERS = [TREES[name] for name in MODULES] + [
    ast.parse(p.read_text(encoding="utf-8"))
    for d in ("scripts", "bench") for p in sorted((ROOT / d).glob("*.py"))]
# Every name they read, bare or as an attribute.
REACHED = {bound for tree in READERS for bound in _reads(tree)}


def _off_args(node) -> bool:
    """Whether an expression is an argparse namespace: `args` or `r.args`."""
    return (isinstance(node, ast.Name) and node.id == "args"
            or isinstance(node, ast.Attribute) and node.attr == "args")


def _attribute_reads(node, function=None):
    """Every name read as an attribute under node, except a read off an
    argparse namespace and a read of `.x` inside a function named `x`,
    which forwards the name rather than reaching it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _attribute_reads(child, child.name)
            continue
        if (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                and child.attr != function and not _off_args(child.value)):
            yield child.attr
        yield from _attribute_reads(child, function)


# Every name they read as an attribute: a method or a field is reached
# only this way, and a local variable of the same name does not reach it.
ATTRIBUTES_READ = {bound for tree in READERS for bound in _attribute_reads(tree)}

# Names `roughtop` exports that no package module, script or bench file
# reads, each with the reason it stays exported.
UNREACHED_EXPORTS = {
    "product_trg": "the paper's product of TRGs, which a planned command that "
                   "checks a product of two TRGs will read",
    "is_effective": "a property of rough actions, which a planned "
                    "`check homogeneous-space` command will read",
    "is_transitive": "a property of rough actions, which a planned "
                     "`check homogeneous-space` command will read",
}


def test_every_export_is_reached_or_listed():
    init = TREES["__init__.py"]
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(set(exported) - REACHED) == sorted(UNREACHED_EXPORTS)


def _is_record_base(base) -> bool:
    """`Record`, or a `namedtuple(...)` call."""
    return (isinstance(base, ast.Name) and base.id == "Record"
            or isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
            and base.func.id == "namedtuple")


def _record_methods():
    """`Class.method` for every method, classmethod and property without
    a leading underscore of a class whose base is `Record` or a named
    tuple."""
    return [f"{c.name}.{f.name}" for tree in TREES.values() for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and any(map(_is_record_base, c.bases))
            for f in c.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def _record_fields():
    """`Class.field` for every name in the `_fields` of a class of the
    package: a `Record` subclass or a named tuple."""
    return [f"{c.name}.{field}" for name in MODULES for c in TREES[name].body
            if isinstance(c, ast.ClassDef)
            for field in getattr(getattr(importlib.import_module(f"roughtop.{name[:-3]}"),
                                         c.name), "_fields", ())]


def test_every_record_method_is_reached():
    methods = _record_methods()
    assert len(methods) > 30 and "TRGCert.upper" in methods
    unreached = [m for m in methods if m.partition(".")[2] not in ATTRIBUTES_READ]
    assert unreached == []


# Record fields that no package module, script or bench file reads as
# an attribute, each with the reason it stays.
UNREAD_FIELDS = {
    "RoughSpace.x_mask": "the rough set X whose upper approximation carries the "
                         "topology; the space is defined by it",
    "RoughAction.mu": "the action map, from which the action table is read once",
    "RoughAction.side": "which argument of the map the group element is; without it a "
                        "left and a right reading of one map, whose tables differ, "
                        "would compare equal",
}


def test_every_record_field_is_read_or_listed():
    fields = _record_fields()
    assert {"Clause.witness", "TRGCert.tau_G", "TRGHom.algebra",
            "RoughGroupCert.inverse"} <= set(fields)
    unread = [f for f in fields if f.partition(".")[2] not in ATTRIBUTES_READ]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


def _stores_only_its_parameters(init) -> bool:
    """Whether an `__init__` does nothing but pass its own parameters,
    unchanged, to one `self._set(...)`."""
    body = init.body[1:] if ast.get_docstring(init) else init.body
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    call = body[0].value
    params = {a.arg for a in init.args.args[1:] + init.args.kwonlyargs}
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "self"
            and call.func.attr == "_set" and not call.args
            and all(isinstance(k.value, ast.Name) and k.value.id in params
                    for k in call.keywords))


def test_records_validate_or_derive():
    """A `Record` is a read-only, hashable value whose constructor checks
    or derives something: a class that only stores its arguments is a
    named tuple, and a mutable one is a plain class, so no `Record`
    subclass turns assignment back on, drops its hash, or has an
    `__init__` that only hands its parameters to `_set`."""
    overrides = ("__setattr__", "__delattr__", "__hash__")
    misfits = []
    for name in MODULES:
        for c in TREES[name].body:
            if not isinstance(c, ast.ClassDef) or not any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in c.bases):
                continue
            for node in c.body:
                if isinstance(node, ast.Assign):
                    misfits += [f"{c.name}.{t.id}" for t in node.targets
                                if isinstance(t, ast.Name) and t.id in overrides]
                elif isinstance(node, ast.FunctionDef) and (
                        node.name in overrides or node.name == "__init__"
                        and _stores_only_its_parameters(node)):
                    misfits.append(f"{c.name}.{node.name}")
    assert misfits == []


def test_every_traced_name_is_a_function_of_its_layer():
    """`bench/tracing.py` wraps each (layer, name) of its TRACED table
    through getattr on roughtop.<layer>, so a traced function that is
    renamed or deleted would otherwise break only the traced run."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}" for layer, names in tracing.TRACED.items()
               for name in names if not inspect.isfunction(
                   getattr(importlib.import_module(f"roughtop.{layer}"), name, None))]
    assert sum(map(len, tracing.TRACED.values())) > 0
    assert missing == []


def test_records_are_built_past_the_constructor_only_where_declared():
    """`record.py` names `topology.Topologies` as the one place that
    builds a record through `__new__` instead of its constructor; a
    read of `X.__new__` anywhere else in the package is a bypass that
    docstring does not declare."""
    bypasses = [(name, top.name, node.value.id)
                for name in MODULES for top in TREES[name].body
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "__new__"
                and isinstance(node.value, ast.Name)]
    assert bypasses == [("topology.py", "Topologies", "FiniteTopology")]
    assert "`topology.Topologies`" in ast.get_docstring(TREES["record.py"])


# The functions that may build each certificate: each verifies or
# decides one, or builds a product from certified factors.
CERTIFIERS = {
    ("groups.py", "verify_rough_group", "RoughGroupCert"),
    ("groups.py", "product_rough_group", "RoughGroupCert"),
    ("trg.py", "decide_trg", "TRGCert"),
    ("trg.py", "product_trg", "TRGCert"),
}


def _certificates_built(node, function=None):
    """(function, class) for each `RoughGroupCert(...)` or
    `TRGCert(...)` call under the node, keyed by the innermost function
    that makes it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("RoughGroupCert", "TRGCert")):
        yield function, node.func.id
    for child in ast.iter_child_nodes(node):
        yield from _certificates_built(child, function)


def test_certificates_come_only_from_a_proof_or_a_decision():
    """The checks state what a certificate proves without deciding it
    again, so every certificate of the package is built where its laws
    are decided or proved from certified factors, and no module raises
    RuntimeError, the mark of a run-time re-decision behind a certificate."""
    built = {(name, *site) for name, tree in TREES.items()
             for site in _certificates_built(tree)}
    assert built == CERTIFIERS
    raising = [name for name, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Raise) and node.exc is not None
               and "RuntimeError" in {n.id for n in ast.walk(node.exc)
                                      if isinstance(n, ast.Name)}]
    assert raising == []
