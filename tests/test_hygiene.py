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
