"""The package's run-time imports: numpy, the package itself and the standard library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "otpiano"


def _imported_modules(path: Path):
    """Top-level names of the modules one source file imports; relative imports are the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "otpiano" if node.level else node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = {"numpy", "otpiano", *sys.stdlib_module_names}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    stray = [(path.name, name) for path in sources for name in _imported_modules(path) if name not in allowed]
    assert stray == []
