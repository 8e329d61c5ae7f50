"""Every name a package or test module imports is read in that module; every
module-level function or class of the package, and each method or
property of such a class, is referenced somewhere, and by the program
itself unless ``KEEP`` names its reader; every defaulted
parameter of those functions and methods is passed by some call; and
every parameter of a package function is read in its body, unless
``UNREAD`` names why not.  No
package module reads another object's private attribute unless that
module defines the attribute, nor imports another module's private name.

The repository runs no linter, so these are the guards against imports,
definitions and parameters left behind when code moves.  ``__init__.py`` is skipped by the
import check: it imports to re-export.

The package exports each public name through one table read by its
``__getattr__``, which loads the name's module on first use.  Tests at the
end pin that table and what each entry point loads in a fresh interpreter.
"""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import pytest

import bigraft
from bigraft.core import Graft
from bigraft.formats import serialize_graft
from bigraft.instances import c4, p3r

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bigraft"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
SOURCES = (sorted(PACKAGE.parent.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
           + PERFBENCH)


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize(
    "path", MODULES + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def referenced_names(tree: ast.AST) -> Counter:
    """Each identifier a tree reads, imports, names as an attribute or
    spells as a string constant (``__all__``, ``monkeypatch.setattr``)."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names[node.value] += 1
    return names


def definitions(module: ast.Module):
    """Each module-level function and class, as (label, node), and each
    non-dunder method or property of such a class."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{node.name}.{member.name}", member


def parse_sources() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in SOURCES}


def unreferenced_definitions() -> list[str]:
    trees = parse_sources()
    everywhere: Counter = sum((referenced_names(t) for t in trees.values()),
                              Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, node in definitions(trees[path]):
            # A reference inside its own body (recursion) does not count.
            outside = everywhere[node.name] - referenced_names(node)[node.name]
            if outside == 0:
                unused.append(f"{path.name}:{label}")
    return unused


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []


PROGRAM = MODULES + PERFBENCH

# Definitions kept although no program file reads them, each for its
# reader outside the program: the acceptance gate, the oracles, or users.
INSTANCE = "a named reference instance that tests and probes build"
KEEP = {
    "cathedral.py:precedes": "the acceptance gate asks the order with it",
    "cathedral.py:CathedralPoset.height_of":
        "the acceptance gate reads a component's height",
    "cathedral.py:round_ear_bond_check": "a lemma check the tests run",
    "cathedral.py:union_criticality_check": "a lemma check the tests run",
    "combs.py:midvertex": "a lemma certificate the tests run",
    "formats.py:serialize_graft":
        "writes the graft documents that the probes run the CLI on",
    "instances.py:k2": INSTANCE,
    "instances.py:c4": INSTANCE,
    "instances.py:chain4": INSTANCE,
    "instances.py:p3r": INSTANCE,
    "instances.py:comb_path": INSTANCE,
    "instances.py:path2": INSTANCE,
    "instances.py:chain_comb": INSTANCE,
    "instances.py:fan": INSTANCE,
    "instances.py:matching": INSTANCE,
    "instances.py:stair": INSTANCE,
    "instances.py:dm": INSTANCE,
    "instances.py:mq": INSTANCE,
    "instances.py:quasicomb": INSTANCE,
    "joins.py:negative_circuit_witness":
        "the certificate that a join is not minimum",
}


def program_unreferenced() -> list[str]:
    """Each definition, as ``unreferenced_definitions`` lists them, that no
    file of the program reads: the package modules other than
    ``__init__.py``, which only re-exports, and ``perfbench/``.  A member
    that only its own tests call shows up here, where the scan over the
    tests as well cannot see it.

    Like the other scans this matches names, not bindings: a definition
    whose name some other object of the program also carries (a field, a
    local, a method of another class) counts as read, so a dead member
    can hide behind a namesake."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in PROGRAM}
    read: Counter = sum((referenced_names(t) for t in trees.values()),
                        Counter())
    unused = []
    for path in MODULES:
        for label, node in definitions(trees[path]):
            if read[node.name] == referenced_names(node)[node.name]:
                unused.append(f"{path.name}:{label}")
    return unused


def test_every_definition_serves_the_program_or_a_kept_reader():
    assert sorted(set(program_unreferenced()) - set(KEEP)) == []


def test_every_kept_definition_exists():
    defined = {f"{path.name}:{label}" for path in MODULES
               for label, _ in definitions(
                   ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(set(KEEP) - defined) == []


def defaulted_parameters(module: ast.Module):
    """Each defaulted parameter of a function or method that
    ``definitions`` lists, as (label, function name, position, name).

    ``position`` counts the arguments a call spells out, so a method's
    ``self`` or ``cls`` is not one; it is None for a keyword-only
    parameter."""
    for label, fn in definitions(module):
        if isinstance(fn, ast.ClassDef):
            continue
        args = fn.args.args[1:] if "." in label else fn.args.args
        first = len(args) - len(fn.args.defaults)
        for position, arg in enumerate(args[first:], start=first):
            yield label, fn.name, position, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield label, fn.name, None, arg.arg


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def passed_arguments(trees) -> dict:
    """For each called name, the most positional arguments any call passes
    and every keyword any call uses.  ``functools.partial(f, ...)`` counts
    as a call of f, and a call that unpacks ``*args`` or ``**kwargs``
    passes everything, recorded as None."""
    passed: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _called_name(func) == "partial" and args:
                func, args = args[0], args[1:]
            name = _called_name(func)
            if name is None or passed.get(name, ()) is None:
                continue
            if any(isinstance(a, ast.Starred) for a in args) or any(
                    k.arg is None for k in node.keywords):
                passed[name] = None
                continue
            most, keywords = passed.get(name, (0, frozenset()))
            passed[name] = (max(most, len(args)),
                            keywords | {k.arg for k in node.keywords})
    return passed


def unset_parameters() -> list[str]:
    trees = parse_sources()
    passed = passed_arguments(trees.values())
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, name, position, param in defaulted_parameters(trees[path]):
            calls = passed.get(name, (0, frozenset()))
            if calls is None:
                continue
            most, keywords = calls
            if param not in keywords and (position is None or most <= position):
                unset.append(f"{path.name}:{label}.{param}")
    return unset


def test_every_defaulted_parameter_is_passed():
    """A default that no call overrides is a constant, not a parameter."""
    assert unset_parameters() == []


def test_partial_and_unpacking_count_as_calls():
    tree = ast.parse("functools.partial(f, 1, key=2)\nf(0)\ng(*xs)\n")
    assert passed_arguments([tree]) == {"f": (1, frozenset({"key"})), "g": None}


def unread_parameters(source: str) -> list[str]:
    """Each parameter of a function, method or lambda that its body never
    reads, as "qualified name.parameter"; a lambda is named ``<lambda>``.
    A parameter named ``_`` says that it is unread, and is skipped."""
    out = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [x.arg for x in (*a.posonlyargs, *a.args, a.vararg,
                                          *a.kwonlyargs, a.kwarg) if x is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for b in body for n in ast.walk(b)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out.extend(f"{name}.{x}" for x in params if x != "_" and x not in read)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


# Parameters left unread on purpose, as fnmatch patterns over
# "module:name.parameter", each because its callers pass it to whichever
# of several functions they hold.
UNREAD = {
    "properties.py:_check_*.rng":
        "every property check takes (instance, rng); the random ones draw from it",
    "joins.py:_SubsetTable.nu_of.graph":
        "a join table's nu_of takes the graph, which the cycle table's reads",
    "joins.py:_SubsetTable.allowed_ids.graph":
        "a join table's allowed_ids takes the graph, which the cycle table's reads",
}


def package_unread_parameters() -> list[str]:
    return [f"{path.name}:{label}" for path in sorted(PACKAGE.glob("*.py"))
            for label in unread_parameters(path.read_text(encoding="utf-8"))]


def test_every_parameter_is_read():
    """A parameter that no body reads is a value each caller passes for
    nothing."""
    assert [label for label in package_unread_parameters()
            if not any(fnmatch(label, pattern) for pattern in UNREAD)] == []


def test_every_unread_exception_is_met():
    found = package_unread_parameters()
    assert [pattern for pattern in UNREAD
            if not any(fnmatch(label, pattern) for label in found)] == []


def test_unread_parameter_is_caught():
    source = ("def f(a, b, *rest, c, **more):\n"
              "    def g(d, _):\n"
              "        return a + (lambda e: 1)(d)\n"
              "    return g\n"
              "class A:\n"
              "    def m(self, x):\n"
              "        return self\n")
    assert unread_parameters(source) == [
        "f.b", "f.rest", "f.c", "f.more", "f.g.<lambda>.e", "A.m.x"]


def private_definitions(tree: ast.AST) -> set[str]:
    """Private names a module defines: ``object.__setattr__`` strings,
    ``self._name`` stores, ``__slots__`` entries and private methods."""
    defined = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _called_name(node.func) == "__setattr__"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            defined.add(node.args[1].value)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            defined.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            defined |= {c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant)}
        elif isinstance(node, ast.ClassDef):
            defined |= {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
    return {name for name in defined
            if isinstance(name, str) and name.startswith("_")}


def foreign_private_reads(source: str) -> list[str]:
    """Each ``obj._name`` read, obj not ``self`` or ``cls``, of a private
    name the module does not define, as "line obj._name"."""
    tree = ast.parse(source)
    own = private_definitions(tree)
    return [f"{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.endswith("__")
            and node.attr not in own
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in ("self", "cls"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_foreign_private_reads(path):
    assert foreign_private_reads(path.read_text(encoding="utf-8")) == []


def test_foreign_private_read_is_caught():
    source = ("class A:\n"
              "    def __init__(self):\n"
              "        self._own = 1\n"
              "        object.__setattr__(self, '_set', 2)\n"
              "    def _helper(self):\n"
              "        return self._anything\n"
              "def f(a, g):\n"
              "    return a._own, a._set, a._helper, g._memo.clear()\n")
    assert foreign_private_reads(source) == ["8 g._memo"]


def foreign_private_imports(source: str) -> list[str]:
    """Each private name imported from a sibling module (``from .x import
    _name``), as "line .x._name"."""
    return [f"{node.lineno} {'.' * node.level}{node.module or ''}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_foreign_private_imports(path):
    assert foreign_private_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_private_import_is_caught():
    source = ("from .joins import _table, reader\n"
              "from .core import (\n"
              "    Graft,\n"
              "    _helper as helper,\n"
              ")\n"
              "from ._blossom import matching\n"
              "from json.encoder import encode_basestring_ascii as _enc\n"
              "from . import __version__\n")
    assert foreign_private_imports(source) == ["1 .joins._table", "2 .core._helper"]


# ---------------------------------------------------------------------------
# The export table and what each entry point loads.
# ---------------------------------------------------------------------------

def loaded_modules(code: str, stdin: str = "") -> set[str]:
    """The ``bigraft`` submodules, without the package prefix, that a fresh
    interpreter has loaded after running ``code``."""
    report = ("\nimport sys\nprint(sorted(m.partition('.')[2] for m in "
              "sys.modules if m.startswith('bigraft.')), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code + report], input=stdin,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stderr.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert loaded_modules("import bigraft") == set()


def test_generator_and_document_load_only_their_layers():
    assert loaded_modules(
        "from bigraft import gen_random_graft, graft_document"
    ) == {"core", "formats", "generators"}


def test_analyze_without_sides_loads_no_comb_layer():
    g = c4()
    loaded = loaded_modules(
        "from bigraft import cli_main\n"
        "assert cli_main(['analyze', '--format', 'json']) == 0",
        stdin=serialize_graft(Graft(g.graph, g.terminals)))
    assert "cli" in loaded
    assert loaded.isdisjoint({"combs", "cathedral", "properties"})


def test_ear_decomp_loads_neither_cathedral_nor_properties():
    loaded = loaded_modules(
        "from bigraft import cli_main\n"
        "assert cli_main(['ear-decomp', 'r']) == 0",
        stdin=serialize_graft(p3r()))
    assert "combs" in loaded
    assert loaded.isdisjoint({"cathedral", "properties"})


def test_export_table_keys_are_all():
    assert list(bigraft._MODULE_OF) == bigraft.__all__


@pytest.mark.parametrize("name", bigraft.__all__)
def test_export_resolves_to_its_module_object(name):
    module = importlib.import_module(f"bigraft.{bigraft._MODULE_OF[name]}")
    assert getattr(bigraft, name) is getattr(module, name)
    assert name in bigraft.__dir__()


def test_star_import_binds_every_name():
    code = ("from bigraft import *\n"
            "import bigraft\n"
            "print([n for n in bigraft.__all__ if n not in globals()])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_unknown_attribute_message():
    with pytest.raises(AttributeError,
                       match="^module 'bigraft' has no attribute 'no_such_name'$"):
        bigraft.no_such_name
