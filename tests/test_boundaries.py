"""Module boundaries: no seusim module uses another module's private names.

A name with a leading underscore belongs to its module.  A module that
needs another's private name should use a public owner of the same rule
instead, so the rule is stated once.  That holds for attributes too: a
module reads or writes `x._name` only where it defines `_name` itself.
Likewise the storage formats: `seusim.tensor.FORMATS` is their one table,
and the other modules derive theirs from it.
"""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

import seusim
from seusim.campaign import InjectionRecord, read_records_csv, write_records_csv
from seusim.inject import FaultLocation, flip_bit
from seusim.model import LayerNode, ModelGraph, ParamKind
from seusim.modelio import serialize_model
from seusim.tensor import FORMATS, QuantParams, Tensor

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


# ---------------------------------------------------------------------------
# storage formats: seusim.tensor.FORMATS states them once
# ---------------------------------------------------------------------------

def format_keyed_dicts(source: str) -> list[str]:
    """The dict literals of `source` with a key that is a FORMATS tag."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Dict)
            and any(isinstance(k, ast.Constant) and k.value in FORMATS for k in node.keys)]


def test_only_tensor_keys_a_table_by_format():
    # a table keyed by format tags restates FORMATS; derive it from FORMATS instead
    found = {p.name: format_keyed_dicts(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "tensor.py"}
    assert {name: dicts for name, dicts in found.items() if dicts} == {}


def test_format_keyed_dicts_finds_literals_only():
    source = ('A = {"f32": 0, "i8": 1}\nB = {k: i for i, k in enumerate(FORMATS)}\n'
              'C = {"float32": {0: "f32"}}\nD = {**E, "i32": 2}\n')
    assert format_keyed_dicts(source) == ["{'f32': 0, 'i8': 1}", "{**E, 'i32': 2}"]


# per row: numpy type, model-file tag (pinned: files written today must load),
# exponent bits and mantissa bits (0 and 0 for two's complement)
PINNED_FORMATS = {"f32": (np.float32, 0, 8, 23), "i8": (np.int8, 1, 0, 0), "i32": (np.int32, 2, 0, 0)}


def test_format_rows_are_pinned():
    assert list(FORMATS) == list(PINNED_FORMATS)
    for tag, (scalar, file_tag, exp_bits, man_bits) in PINNED_FORMATS.items():
        fmt = FORMATS[tag]
        assert (fmt.dtype, fmt.width, fmt.raw.kind, fmt.raw.itemsize) == (np.dtype(scalar), 8 * fmt.dtype.itemsize,
                                                                           "u", fmt.dtype.itemsize)
        assert fmt.exponent == ((1 << exp_bits) - 1) << man_bits and fmt.mantissa == (1 << man_bits) - 1
        g = ModelGraph([LayerNode(0, "conv", {
            ParamKind.ConvWeight: Tensor(np.ones((1, 1, 1, 1)), tag, None if exp_bits else QuantParams(1.0)),
            ParamKind.ConvBias: Tensor(np.ones(1), tag, None if exp_bits else QuantParams(1.0))})],
            n_classes=1, n_input_channels=1)
        blob = serialize_model(g)
        dims = struct.pack("<BBB4I", 0, file_tag, 4, 1, 1, 1, 1)  # ConvWeight, this row's tag, 1x1x1x1
        assert blob.count(dims) == 1


@pytest.mark.parametrize("tag", list(PINNED_FORMATS))
def test_flip_bit_matches_numpy_on_every_bit_of_every_row(tag):
    scalar, _, exp_bits, man_bits = PINNED_FORMATS[tag]
    fmt = FORMATS[tag]
    rng = np.random.default_rng(27)
    top = (1 << fmt.width) - 1
    patterns = np.array([0, top, top >> 1, 1 << (fmt.width - 1), fmt.exponent, fmt.exponent | 1,
                         *rng.integers(0, top, 40, endpoint=True, dtype=np.uint64)], dtype=np.uint64).astype(fmt.raw)
    for pattern, value in zip(patterns.tolist(), patterns.view(scalar)):
        for bit in range(fmt.width):
            new, cls = flip_bit(value, tag, bit)
            post = np.array(new, scalar).view(fmt.raw).item()
            assert post == pattern ^ (1 << bit)
            field = ("sign" if bit == fmt.width - 1 else "magnitude" if not exp_bits
                     else "exponent" if bit >= man_bits else "mantissa")
            kind = "nan" if np.isnan(new) else "infinite" if np.isinf(new) else "finite"
            direction = "one_to_zero" if pattern >> bit & 1 else "zero_to_one"
            assert cls == (field, direction, kind), (hex(pattern), bit)


@pytest.mark.parametrize("tag", list(PINNED_FORMATS))
def test_records_take_each_rows_width_in_hex_digits(tmp_path, tag):
    width = FORMATS[tag].width
    record = InjectionRecord(FaultLocation(0, ParamKind.ConvBias, 0, width - 1), width, 1, 1 | 1 << (width - 1),
                             "zero_to_one", "sign", "finite", 0, 0.5)
    path = tmp_path / "records.csv"
    write_records_csv(path, [record])
    assert read_records_csv(path) == [record]
    text = path.read_text()
    pre, post = f"{1:0{width // 4}x}", f"{1 | 1 << (width - 1):0{width // 4}x}"
    for digits in (width // 4 - 1, width // 4 + 1):  # no row is 4 bits narrower or wider
        path.write_text(text.replace(f",{pre},{post},", f",{1:0{digits}x},{1 << (4 * digits - 1) | 1:0{digits}x},")
                        .replace(f",{width - 1},", f",{4 * digits - 1},"))
        with pytest.raises(ValueError, match="column 'pre_bits': expected hex_bits"):
            read_records_csv(path)
