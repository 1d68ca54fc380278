"""Static hygiene checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "omlkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    """Names bound by module-level imports that the module never reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_detector():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re\nfrom a import b as c, d\n"
                     "re.compile(d)\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "c")]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _unread_private_names(tree):
    """Private names bound by module-level assignment, ``def`` or ``class``
    that the module never reads, such as a chunk size or a helper left
    behind by deleted code."""
    bound = {}
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)) and _private(node.name)):
            bound.setdefault(node.name, node.lineno)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and _private(name.id):
                    bound.setdefault(name.id, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_module_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unread_private_names(tree) == []


def test_unread_private_name_detector():
    tree = ast.parse("__all__ = []\n_CHUNK = 8\n_USED = 2\nPUBLIC = 1\n"
                     "_a, (_b, c) = 1, (2, 3)\n_T: int = 4\n"
                     "def f(_local=_USED):\n    _inner = _b\n"
                     "    return _inner\n"
                     "def _blocks():\n    pass\n"
                     "async def _fetch():\n    pass\n"
                     "class _Gone:\n    def _method(self):\n        pass\n"
                     "def _helper():\n    return _Kept()\n"
                     "class _Kept:\n    pass\n"
                     "def __getattr__(name):\n    return _helper\n")
    assert _unread_private_names(tree) == [(2, "_CHUNK"), (5, "_a"),
                                           (6, "_T"), (10, "_blocks"),
                                           (12, "_fetch"), (14, "_Gone")]


_NARROW_INTS = {"int8", "uint8", "int16", "uint16", "byte", "ubyte", "short",
                "ushort"}
_NARROW_CODES = {"i1", "u1", "i2", "u2", "b", "B", "h", "H"}


def _narrow_int(node):
    """True if node names an integer dtype of fewer than 32 bits:
    ``np.uint8``, ``numpy.int16``, ``"u1"`` and the like."""
    if isinstance(node, ast.Attribute):
        return node.attr in _NARROW_INTS
    return (isinstance(node, ast.Constant)
            and node.value in _NARROW_INTS | _NARROW_CODES)


def _narrow_cast(node):
    """True if node casts to a narrow integer dtype: ``a.astype(np.uint8)``,
    ``np.asarray(a, dtype="u1")`` or ``np.uint8(a)``."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
        return bool(node.args) and _narrow_int(node.args[0])
    return (_narrow_int(node.func)
            or any(k.arg == "dtype" and _narrow_int(k.value)
                   for k in node.keywords))


def _narrow_products(tree):
    """Lines of matrix products (``@``, ``np.matmul``, ``np.dot``) with an
    operand cast to a narrow integer dtype, whose sums wrap: a count of
    256 paths is 0 in 8 bits."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("matmul", "dot")):
            operands = [*node.args, *(k.value for k in node.keywords)]
            if isinstance(node.func.value, ast.Call):
                operands.append(node.func.value)  # a.astype(...).dot(b)
        else:
            continue
        if any(_narrow_cast(op) for op in operands):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_matrix_products_in_narrow_integers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _narrow_products(tree) == []


def test_narrow_product_detector():
    tree = ast.parse("a.astype(np.uint8) @ b\n"
                     "a @ b.astype(numpy.int16)\n"
                     "np.matmul(np.asarray(a, dtype='u1'), b)\n"
                     "np.dot(a, np.int8(b))\n"
                     "a.astype(np.uint8).dot(b)\n"
                     "a @ b\n"
                     "a.astype(np.int32) @ b.astype(np.int64)\n"
                     "np.matmul(a.astype(bool), b)\n"
                     "c = a.astype(np.uint8)\n"
                     "np.dot(a, np.asarray(b, dtype=np.uint32))\n"
                     "a.astype(self.b) @ b\n")
    assert _narrow_products(tree) == [1, 2, 3, 4, 5]


def test_cli_import_skips_networkx_and_sympy():
    """Neither loads at a CLI start: networkx loads on first use only, and
    the package never imports sympy."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, omlkit.cli; "
            "print([m for m in ('networkx', 'sympy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("dim, trials", [(2, 100), (3, 100), (4, 50)])
def test_keller_runs_without_sympy(dim, trials):
    """The series gcd is native: a keller run never imports sympy.  From
    dim 3 on the run takes polynomial gcds, so the native module loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import contextlib, io, sys\n"
            "from omlkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['keller', '--dim', '{dim}', "
            f"'--trials', '{trials}'])\n"
            "print(code, 'sympy' in sys.modules, "
            "'omlkit.heugcd' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["0", "False", str(dim > 2)]
