"""Static checks of the package source, made with the stdlib ``ast`` module."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import genoseq

MODULES = sorted(Path(genoseq.__file__).parent.glob("*.py"))
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
FILE_CALLS = ("open", "write_text", "write_bytes")
RANDOM_SOURCES = ("numpy.random", "random", "secrets", "os.urandom")


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


def file_io(source: str) -> list[str]:
    """Calls in ``source`` of a FILE_CALLS name, as a function or a method, and imports of json."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in FILE_CALLS:
                found.append((node.lineno, f"{name}()"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append((node.lineno, f"from {node.module} import"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def random_sources(source: str) -> list[str]:
    """Imports of a RANDOM_SOURCES name or of a name inside one, and uses of one as an attribute.

    An attribute chain is read through the names that the imports bind, so
    ``np.random`` is ``numpy.random`` after ``import numpy as np``.
    """
    def is_random(name):
        return any(name == s or name.startswith(s + ".") for s in RANDOM_SOURCES)

    tree = ast.parse(source)
    bound, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
                if is_random(a.name):
                    found.append((node.lineno, f"import {a.name}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.lineno, f"from {node.module} import {a.name}") for a in node.names
                      if is_random(node.module) or is_random(f"{node.module}.{a.name}")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            head, _, rest = ast.unparse(node).partition(".")
            if f"{bound.get(head, head)}.{rest}" in RANDOM_SOURCES:
                found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def unused_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Functions, classes and methods defined in ``sources`` ({name: source}) that no code reads.

    A definition is read when its name occurs as a name or an attribute in
    any of ``sources`` or ``readers``. Dunder methods, which Python calls
    itself, are never reported.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {getattr(node, "id", getattr(node, "attr", None))
            for tree in [*trees.values(), *map(ast.parse, readers)] for node in ast.walk(tree)}
    found = [(name, node.lineno, node.name) for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name not in read and not node.name.startswith("__")]
    return [f"{name}:{line}: {what}" for name, line, what in sorted(found)]


def off_path_exits(source: str) -> list[str]:
    """Writes to stderr outside a top-level ``main``, and ``cmd_*`` functions that return a value.

    A write is ``print(..., file=sys.stderr)`` or ``sys.stderr.write(...)``;
    passing ``sys.stderr`` as an argument, as logging's ``stream=`` does, is not.
    """
    tree = ast.parse(source)
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    in_main = {id(node) for f in functions if f.name == "main" for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in in_main:
            continue
        if getattr(node.func, "id", None) == "print" and any(
                kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords):
            found.append((node.lineno, "print to sys.stderr"))
        elif ast.unparse(node.func) == "sys.stderr.write":
            found.append((node.lineno, "sys.stderr.write"))
    found += [(node.lineno, f"{f.name} returns a value") for f in functions
              if f.name.startswith("cmd_") for node in ast.walk(f)
              if isinstance(node, ast.Return) and node.value is not None]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def resolver_calls(source: str, caller: str | None) -> list[str]:
    """Calls of ``resolve_config``, as a function or a method, outside a top-level ``caller``."""
    tree = ast.parse(source)
    allowed = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == caller
               for node in ast.walk(f)}
    return [f"line {node.lineno}: resolve_config()" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "resolve_config"]


def test_module_list_is_the_package():
    assert {p.stem for p in MODULES} >= {"cli", "data", "mf", "pipeline", "rnn"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "from .data import SequenceBatch, write_csv\nimport numpy as np\nwrite_csv(np)\n"
    assert unused_imports(source) == ["line 1: SequenceBatch"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "data.py"], ids=lambda p: p.name)
def test_only_data_opens_files_or_json(path):
    # every export goes through data.write_csv or data.write_json, every JSON read through read_json
    assert file_io(path.read_text(encoding="utf-8")) == []


def test_file_io_is_caught():
    source = ("import json\nfrom json import dumps\nfrom pathlib import Path\n"
              "with open('a') as fh:\n    Path('b').write_bytes(fh.read())\n")
    assert file_io(source) == ["line 1: import json", "line 2: from json import",
                               "line 4: open()", "line 5: write_bytes()"]
    data = next(p for p in MODULES if p.name == "data.py")
    assert file_io(data.read_text(encoding="utf-8"))  # the one module that does the I/O


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_random_numbers_come_only_from_rng(path):
    # linalg.Rng's counter stream is what makes every draw replay bit-for-bit from its seed
    assert random_sources(path.read_text(encoding="utf-8")) == []


def test_random_source_is_caught():
    source = ("import os\nimport random\nimport numpy as np\nfrom numpy import random as npr\n"
              "from secrets import token_bytes\nx = np.random.default_rng(0).random()\n"
              "y = os.urandom(8)\nz = np.linalg.norm(x)\nfrom . import linalg\n")
    assert random_sources(source) == ["line 2: import random", "line 4: from numpy import random",
                                      "line 5: from secrets import token_bytes", "line 6: np.random",
                                      "line 7: os.urandom"]
    assert random_sources("import numpy.random as npr\nfrom os import urandom\n") == [
        "line 1: import numpy.random", "line 2: from os import urandom"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_main_picks_an_exit(path):
    # commands finish or raise; cli.main alone turns the outcome into an exit code and one line
    assert off_path_exits(path.read_text(encoding="utf-8")) == []


def test_off_path_exit_is_caught():
    source = ("import logging, sys\nlogging.basicConfig(stream=sys.stderr)\n"
              "def cmd_run(args):\n    print('failed', file=sys.stderr)\n    return 1\n"
              "def helper():\n    sys.stderr.write('x')\n    return 2\n"
              "def main():\n    print('genoseq: x', file=sys.stderr)\n    return 1\n")
    assert off_path_exits(source) == ["line 4: print to sys.stderr",
                                      "line 5: cmd_run returns a value", "line 7: sys.stderr.write"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_main_resolves_the_config(path):
    # main resolves a run's config once and hands it to the command, which cannot skip or redo it
    caller = "main" if path.name == "cli.py" else None
    assert resolver_calls(path.read_text(encoding="utf-8"), caller) == []


def test_resolver_call_is_caught():
    source = ("from . import pipeline\nfrom .pipeline import resolve_config\n"
              "def cmd_run(args, values):\n    cfg = pipeline.resolve_config(values)\n"
              "def main(values):\n    resolve_config(values)\n")
    assert resolver_calls(source, "main") == ["line 4: resolve_config()"]
    assert resolver_calls(source, None) == ["line 4: resolve_config()", "line 6: resolve_config()"]
    cli = next(p for p in MODULES if p.name == "cli.py")
    assert resolver_calls(cli.read_text(encoding="utf-8"), None)  # main's one call


def test_every_definition_is_used_by_the_package_or_the_acceptance_gate():
    # a helper that only its own unit tests call is dead code: delete both
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unused_definitions(sources, [ACCEPTANCE.read_text(encoding="utf-8")]) == []


def test_unused_definition_is_caught():
    source = ("class Used:\n    def __len__(self):\n        return 0\n"
              "    def spare(self):\n        return Used()\n"
              "def helper():\n    return 1\n")
    assert unused_definitions({"m.py": source}, []) == ["m.py:4: spare", "m.py:6: helper"]
    assert unused_definitions({"m.py": source}, ["Used().spare()"]) == ["m.py:6: helper"]


FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, strategies as st


@given(st.integers(0, 20))
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # reporting a failure, hypothesis imports modules that warn as they load; under the suite's
    # filterwarnings = ["error"] an unfiltered one ends the session in INTERNALERROR and hides
    # the falsifying example and every later result
    (tmp_path / "test_planted.py").write_text(FAILING_HYPOTHESIS_TEST, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "test_planted.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1 and "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout
