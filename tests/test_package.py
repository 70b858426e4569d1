import ast
import re
from pathlib import Path

import mvcodec

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    assert [name for name in mvcodec.__all__ if not hasattr(mvcodec, name)] == []


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of every top-level definition of a module and of
    every method of its classes, dunders excluded (Python calls those)."""
    found = [(name, node.lineno) for node in tree.body for name in _defined_names(node)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    # module dunders such as __all__ are read by Python itself
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def test_every_src_definition_has_a_caller():
    # a top-level function, class or constant of the package, and every
    # method of its classes, must be named somewhere in src/, bench/ or
    # pyproject.toml other than on its own definition line
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    lines = {path: path.read_text().splitlines() for path in sources}
    lines[ROOT / "pyproject.toml"] = (ROOT / "pyproject.toml").read_text().splitlines()
    uncalled = []
    for path in sorted((ROOT / "src" / "mvcodec").glob("*.py")):
        for name, lineno in _definitions(ast.parse(path.read_text())):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, 1)
                if (other, number) != (path, lineno)
            ):
                uncalled.append(f"{path.name}:{name}")
    assert uncalled == []
