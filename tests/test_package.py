import ast
import re
from pathlib import Path

import mvcodec

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    assert [name for name in mvcodec.__all__ if not hasattr(mvcodec, name)] == []


def test_every_src_definition_has_a_caller():
    # a top-level function or class of the package must be named somewhere
    # in src/, bench/ or pyproject.toml other than on its own def line
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    lines = {path: path.read_text().splitlines() for path in sources}
    lines[ROOT / "pyproject.toml"] = (ROOT / "pyproject.toml").read_text().splitlines()
    uncalled = []
    for path in sorted((ROOT / "src" / "mvcodec").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, 1)
                if (other, number) != (path, node.lineno)
            ):
                uncalled.append(f"{path.name}:{node.name}")
    assert uncalled == []
