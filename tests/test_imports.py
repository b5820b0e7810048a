"""Static checks on the package's imports.

The package has no runtime dependencies, so every absolute import must name
a standard-library module, as must tests/oracle.py's, which shares no code
with daxcalc or the helpers.  No imported name may go unused: a name counts
as used when it appears in the code, in a quoted annotation or in the
module's `__all__`, which is how `__init__.py` re-exports.  The reference
implementations in `tests/helpers.py` read no private name of the package,
so they cannot share a rule with the code they check.  Only the guards in
`errors.py` and `documents._expect` name a value's type in a message, so
each argument-type rule is written once.  Only `documents._at`, which puts a
field path on an error, and `cli.main`, which prints it, catch the package's
own errors, so no other place re-wraps them.  GroupSpec._merge checks
nothing, so only groups.py and the word parsers, which pass it syllables
they have checked or accepted, may call it.  RingElement._trusted and
_counted check nothing either, so only ring.py and the modules that hand them
values and elements already checked (engine.py, kernel.py, words.py) may call
them.  Each value type has one raw builder that skips the constructor's
checks: only GroupSpec._merge and RingElement._trusted call `__new__`
(object.__new__ or any other).  The value classes are written out by hand,
so no module imports dataclasses, and importing the CLI loads none of the
modules that dataclasses would pull in.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "daxcalc"
MODULES = sorted(PACKAGE.glob("*.py"))
ORACLE = ROOT / "tests" / "oracle.py"
HELPERS = ROOT / "tests" / "helpers.py"


def imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def used_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                quoted = ast.parse(ann.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_modules_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", [*MODULES, ORACLE], ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in imports(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {module}"


@pytest.mark.parametrize("path", [*MODULES, ORACLE, HELPERS], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    for node in imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            assert bound in used, f"{path.name}:{node.lineno} imports {alias.name} but never uses it"


def private_definitions(tree: ast.Module):
    """Private module-level names, and private functions, methods and classes at any depth."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    private = [
        (name, f"{module}:{lineno}")
        for module, tree in trees.items()
        for name, lineno in private_definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private
    unused = [f"{where} defines {name} but nothing references it" for name, where in private if name not in referenced]
    assert not unused, unused


def test_helpers_read_no_private_package_name():
    private = {
        name
        for path in MODULES
        for name, _ in private_definitions(ast.parse(path.read_text(), str(path)))
        if name.startswith("_") and not name.startswith("__")
    }
    tree = ast.parse(HELPERS.read_text(), str(HELPERS))
    reads = [(node.attr, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    for node in imports(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("daxcalc"):
            reads.extend((alias.name, node.lineno) for alias in node.names)
    found = [f"helpers.py:{lineno} reads {name}" for name, lineno in reads if name in private]
    assert not found, found


def type_name_reads(tree: ast.AST) -> list[int]:
    """Lines that read type(x).__name__ or x.__class__.__name__."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__name__"
        and (getattr(getattr(node.value, "func", None), "id", None) == "type" or getattr(node.value, "attr", None) == "__class__")
    ]


def test_only_the_guards_name_a_value_type():
    found = []
    for path in MODULES:
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            line
            for node in ast.walk(tree)
            if path.name == "documents.py" and isinstance(node, ast.FunctionDef) and node.name == "_expect"
            for line in type_name_reads(node)
        }
        found += [f"{path.name}:{line}" for line in type_name_reads(tree) if line not in allowed]
    assert not found, f"use errors._require or errors._require_iter: {found}"


def caught_package_errors(tree: ast.AST) -> list[int]:
    """Lines of except clauses that catch DaxError, ParseError or ValidationError."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(c, "id", None) in ("DaxError", "ParseError", "ValidationError") for c in caught):
                lines.append(node.lineno)
    return lines


def test_only_at_and_main_catch_package_errors():
    catchers = {("documents.py", "_at"), ("cli.py", "main")}
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            line
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in catchers
            for line in caught_package_errors(node)
        }
        found += [f"{path.name}:{line}" for line in caught_package_errors(tree) if line not in allowed]
    assert not found, f"put a field path on an error through documents._at: {found}"


def calls_outside(methods: set[str], allowed: set[str]) -> list[str]:
    """Calls of the named methods in src, tests and bench outside the allowed package modules.

    A monkeypatch reads the method as an attribute, which is not a call.
    """
    skipped = {PACKAGE / name for name in allowed}
    found = []
    for path in sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")):
        if path in skipped:
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in methods
        ]
    return found


def test_only_groups_and_words_call_the_unchecked_merge():
    found = calls_outside({"_merge"}, {"groups.py", "words.py"})
    assert not found, f"build words through GroupSpec.element, which checks each syllable: {found}"


def test_only_ring_engine_kernel_and_words_call_the_unchecked_ring_builders():
    found = calls_outside({"_trusted", "_counted"}, {"ring.py", "engine.py", "kernel.py", "words.py"})
    assert not found, f"build ring values through RingElement.from_mapping, which checks each term: {found}"


def new_calls(tree: ast.AST) -> list[int]:
    """Lines that call a __new__ method, such as object.__new__(cls)."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__"]


def test_only_merge_and_ring_trusted_build_without_checks():
    builders = {("groups.py", "GroupSpec", "_merge"), ("ring.py", "RingElement", "_trusted")}
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            line
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and (path.name, cls.name, node.name) in builders
            for line in new_calls(node)
        }
        found += [f"{path.name}:{line}" for line in new_calls(tree) if line not in allowed]
    assert not found, f"build values through their constructors, GroupSpec._merge or RingElement._trusted: {found}"


def test_no_module_imports_dataclasses():
    found = []
    for path in MODULES:
        for node in imports(ast.parse(path.read_text(), str(path))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert not found, f"write the value class by hand on groups._Value: {found}"


def test_importing_the_cli_loads_no_class_generation_modules():
    # only what the import adds is checked, so a module the interpreter's site setup loads does not count
    code = "import sys; before = set(sys.modules); import daxcalc.cli; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    added = set(result.stdout.split())
    assert "daxcalc.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(added)
