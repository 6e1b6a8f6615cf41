"""Static checks of the package source, made with the stdlib ``ast`` module."""

import ast
from pathlib import Path

import pytest

import genoseq

MODULES = sorted(Path(genoseq.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names that an import statement in ``source`` binds and no code reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_module_list_is_the_package():
    assert {p.stem for p in MODULES} >= {"cli", "data", "mf", "pipeline", "rnn"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "from .data import SequenceBatch, write_csv\nimport numpy as np\nwrite_csv(np)\n"
    assert unused_imports(source) == ["line 1: SequenceBatch"]
