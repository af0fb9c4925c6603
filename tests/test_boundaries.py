"""Module boundaries: no seusim module uses another module's private names.

A name with a leading underscore belongs to its module.  A module that
needs another's private name should use a public owner of the same rule
instead, so the rule is stated once.  That holds for attributes too: a
module reads or writes `x._name` only where it defines `_name` itself.
"""

import ast
from pathlib import Path

import seusim

SRC = Path(seusim.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_seusim(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "seusim"


def _defined(tree) -> set[str]:
    """Names `tree` defines: its functions and methods, its class attributes
    and fields, and the targets of its `self.name = ...` assignments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return names


def private_uses(source: str) -> list[str]:
    """Private names of other seusim modules that `source` imports, or reads
    as attributes of a seusim module it imported, and private attributes it
    reads or writes on any other object without defining them (`_defined`)."""
    tree = ast.parse(source)
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_seusim(node):
            for alias in node.names:
                if node.module is None:  # from . import campaign as camp
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    uses.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "seusim":
                    modules.add(alias.asname or alias.name.split(".")[0])
    defined = _defined(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                uses.append(f"{node.value.id}.{node.attr}")
            elif node.attr not in defined:
                uses.append(ast.unparse(node))
    return uses


def test_no_module_uses_another_modules_private_names():
    found = {p.name: private_uses(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_private_uses_finds_both_forms():
    source = (
        "from . import campaign as camp, errormodel\n"
        "from .model import _execute, descendants\n"
        "import seusim.model as zoo\n"
        "camp._json_value(1, int); errormodel._p_fi(None, 2); zoo._logits; camp.plan\n"
        "from . import __version__\n"
    )
    assert sorted(private_uses(source)) == [
        "camp._json_value", "errormodel._p_fi", "from .model import _execute", "zoo._logits"]


def test_private_uses_finds_attributes_defined_elsewhere():
    source = (
        "class Graph:\n"
        "    _cache: dict = None\n"
        "    _size = 0\n"
        "    def _step(self):\n"
        "        self._count = self._size\n"
        "def run(g, h):\n"
        "    g._cache, g._step(), h.model._count, g.__dict__\n"
        "    g._active_fault = None\n"
        "    return h.model._active_fault, g._size._bits\n"
    )
    assert sorted(private_uses(source)) == ["g._active_fault", "g._size._bits", "h.model._active_fault"]


def _calls(tree, owner: str, name: str) -> list[str]:
    """Names of the top-level functions of `tree` that call `owner.name`
    (or `name`, when `owner` is empty)."""
    found = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                f = node.func if isinstance(node, ast.Call) else None
                if (isinstance(f, ast.Name) and not owner and f.id == name) or (
                        isinstance(f, ast.Attribute) and f.attr == name
                        and isinstance(f.value, ast.Name) and f.value.id == owner):
                    found.append(fn.name)
    return found


def test_main_alone_writes_manifests_and_takes_the_time():
    # one manifest rule and one start time for every subcommand
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _calls(tree, "", "_write_manifest") == ["main"]
    assert [f for f in _calls(tree, "time", "time") if f.startswith("cmd_")] == []
