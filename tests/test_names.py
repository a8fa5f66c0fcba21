"""Every module-level name of the package is used somewhere besides its own
definition: in `src/`, `demos/`, `tests/` or `bench/`.  A name nothing reads
is dead code.  The storm kernel's internals are read only where they belong."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "stormrisk"


def _defined(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define (imports aside)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _references(tree: ast.Module) -> Counter:
    """Each name a module reads: loaded names, attributes, imported names and
    string constants (`mock.patch.object(module, "name")`, `__all__`)."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def test_every_module_level_name_is_used():
    refs = Counter()
    for folder in ("src", "demos", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs += _references(ast.parse(path.read_text(encoding="utf-8")))
    dead = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _defined(ast.parse(path.read_text(encoding="utf-8")))
        if not name.startswith("__") and not refs[name]
    ]
    assert dead == []


# Storm geometry has one home: the kernel's callers, and the names only `wind` reads.
KERNEL_USERS = {"_kernel": {"wind", "aggregate"}} | {
    name: {"wind"} for name in ("_reach", "_translation", "_vector_sum", "_windows")
}


def test_storm_geometry_stays_in_wind():
    users = {name: set() for name in KERNEL_USERS}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                read = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                read = {node.id}
            elif isinstance(node, ast.Attribute):
                read = {node.attr}
            else:
                continue
            for name in read & users.keys():
                users[name].add(path.stem)
    strays = {name: users[name] - allowed for name, allowed in KERNEL_USERS.items() if users[name] - allowed}
    assert strays == {}
