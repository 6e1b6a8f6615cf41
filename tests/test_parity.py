"""tools/parity.py on one small synth: a copy of the tree matches, a one-ulp change is named."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    monkeypatch.setattr(parity, "COMMANDS", [parity._cli(
        "synth", "--samples", "6", "--snps", "8", "--rank", "2", "--traits", "1", "--out", "d")])
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_an_unchanged_copy_matches(tree, capsys):
    assert parity.main([str(tree)]) == 0
    # the four synth outputs and the two config files written before the commands
    assert capsys.readouterr().out == "parity: 6 files and 1 commands matched\n"


def test_a_value_one_ulp_higher_is_named(tree, capsys):
    data = tree / "src" / "genoseq" / "data.py"
    source, end = data.read_text(encoding="utf-8"), "    return PhenotypeTable(values,"
    plant = "    values[0, 0] = np.nextafter(values[0, 0], np.inf)\n" + end
    data.write_text(source.replace(end, plant), encoding="utf-8")
    assert parity.main([str(tree)]) == 1
    assert capsys.readouterr().out == "differs: file d/pheno.csv\n"
