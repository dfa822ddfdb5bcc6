"""Package layout rules, read from the source with `ast`.

The three computation routes stay independent, so that their agreement in
criterion 1 means something: enumeration (`oracle`), character sums
(`charactereval`) and the commutation walk (`wedge`, `wallcross`) never
import one another, directly or through another module of the package.
No module reaches into another module's private (underscore) names, and no
module imports a name it never uses (the package's `__init__`, which
re-exports, is exempt, and a name listed in `__all__` counts as used).
Every module-level function and class is used somewhere in the package
outside its own definition, or is public API named in `hurwitz.__all__`;
a public name that no module calls is documented in the README.  Every
method but the dunders is read as an attribute (`x.name`) somewhere in the
package outside its own body, or is a method of a public class that the
README names as `Class.method`; the check goes by name alone, so a method
passes when another attribute shares its name.
Only `algebra` reads a polynomial's packed monomial keys (`.num`) or builds
one from them (`MultiPoly._make`), so the key encoding has one home.  Likewise
only `algebra` reads a series' packed numerators or denominator (`.num`,
`.den`) or a space's packing fields (`.low`, `.shifts`, `.guard`, `.grades`,
`.gcaps`), or builds a series from them (a direct `TruncSeries(...)`
call); every other module builds a series through its `Space` and reads
exact coefficients through `TruncSeries.data` or `coeff`.  The CLI calls
no route for a count: `verify.count` is the one place that picks a route
by method name.  Importing the package or its CLI loads none of
`dataclasses`, `inspect` or `typing`, which would cost every fresh process
more than most single counts do.
"""

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hurwitz"
README = PACKAGE.parent.parent / "README.md"

ROUTES = {
    "oracle": {"charactereval", "wedge", "wallcross"},
    "charactereval": {"oracle", "wedge", "wallcross"},
    "wedge": {"oracle", "charactereval"},
    "wallcross": {"oracle", "charactereval"},
}


def _package_imports(module: str):
    """(imported module, imported name or None) for each in-package import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import x
                    yield alias.name, None
                else:
                    yield node.module, alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hurwitz"):
            for alias in node.names:
                yield node.module.removeprefix("hurwitz").lstrip("."), alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hurwitz."):
                    yield alias.name.removeprefix("hurwitz."), None


def _modules():
    return sorted(p.stem for p in PACKAGE.glob("*.py"))


def _reachable(module: str) -> set:
    seen, todo = set(), [module]
    while todo:
        for dep, _ in _package_imports(todo.pop()):
            if dep and dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_package_is_found():
    assert set(ROUTES) <= set(_modules())


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_routes_stay_independent(route):
    assert not _reachable(route) & ROUTES[route]


@pytest.mark.parametrize("module", _modules())
def test_no_private_names_cross_modules(module):
    private = [f"{dep}.{name}" for dep, name in _package_imports(module) if name and name.startswith("_")]
    assert not private


def _unused_imports(module: str) -> list:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_cli_picks_no_route():
    names = {name for _, name in _package_imports("cli")}
    assert not names & {"count_factorizations", "hurwitz_disconnected", "hurwitz_connected_simple", "evaluate"}


@pytest.mark.parametrize("module", [m for m in _modules() if m != "__init__"])
def test_no_unused_imports(module):
    assert not _unused_imports(module)


def _references(node) -> set:
    """Names and attribute names read anywhere inside `node`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _attributes(node) -> Counter:
    """How often each attribute name is read anywhere inside `node`."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_definition_is_used_or_public():
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in _modules()}
    readme = README.read_text()
    public = set()
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            public |= {elt.value for elt in node.value.elts}
    # the names read by each top-level statement of each module
    reads = {(m, i): _references(node) for m, tree in trees.items() for i, node in enumerate(tree.body)}
    attributes = sum(map(_attributes, trees.values()), Counter())

    def documented(name):
        return re.search(rf"`{re.escape(name)}\b", readme)

    unused = []
    for module, tree in trees.items():
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            called = any(node.name in names for key, names in reads.items() if key != (module, i))
            if not called and not (node.name in public and documented(node.name)):
                unused.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or re.fullmatch(r"__\w+__", method.name):
                    continue
                name = f"{node.name}.{method.name}"
                read = attributes[method.name] > _attributes(method)[method.name]
                if not read and not (node.name in public and documented(name)):
                    unused.append(f"{module}.{name}")
    assert not unused


@pytest.mark.parametrize("module", [m for m in _modules() if m != "algebra"])
def test_only_algebra_touches_packed_monomials(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    touched = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("num", "_make")
    ]
    assert not touched


SERIES_INTERNALS = ("num", "den", "low", "shifts", "guard", "grades", "gcaps")


@pytest.mark.parametrize("module", [m for m in _modules() if m != "algebra"])
def test_only_algebra_reads_series_numerators(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    touched = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SERIES_INTERNALS
    ]
    touched += [
        f"line {node.lineno}: TruncSeries(...)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _references(node.func) & {"TruncSeries"}
    ]
    assert not touched


# what `import hurwitz` and then `import hurwitz.cli` add to `sys.modules`,
# each against the set loaded just before it (a `site` hook may already
# have loaded `typing`)
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import hurwitz
after = set(sys.modules)
import hurwitz.cli
print(json.dumps([sorted(after - before), sorted(set(sys.modules) - after)]))
"""


@pytest.mark.parametrize("flags", [(), ("-I",), ("-S",)], ids=["default", "isolated", "no-site"])
def test_import_loads_no_heavy_standard_modules(flags):
    probe = _IMPORT_PROBE.format(src=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, *flags, "-c", probe], capture_output=True, text=True, check=True).stdout
    package, cli = json.loads(out)
    assert "hurwitz.wedge" in package and "hurwitz.cli" in cli
    for added in (package, cli):
        assert not {"dataclasses", "inspect", "typing"} & set(added)
