"""No module of the package imports a private name from another one, or
the specfun aliases."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gammacross"


def private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("gammacross"):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_private_names_imported_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def specfun_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "specfun" for name in names):
            yield f"{path.name}:{node.lineno}"


def test_no_module_imports_specfun():
    # specfun holds two scipy aliases for the benchmark's counters; the
    # package calls scipy.special directly
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "specfun.py"]
    assert len(modules) > 10
    assert [hit for path in modules for hit in specfun_imports(path)] == []
