"""tools/parity.py on one small synth: a copy of the tree matches, a one-ulp change is named;
``--test04`` on stubbed final losses: the digest follows its recipe; ``--threads`` on a stub
program: an output that differs between thread counts is named, and the run still passes."""

import hashlib
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
    # the four synth outputs, and the two config files and the token file written before them
    assert capsys.readouterr().out == "parity: 7 files and 1 commands matched\n"


def test_a_value_one_ulp_higher_is_named(tree, capsys):
    data = tree / "src" / "genoseq" / "data.py"
    source, end = data.read_text(encoding="utf-8"), "    return PhenotypeTable(values,"
    plant = "    values[0, 0] = np.nextafter(values[0, 0], np.inf)\n" + end
    data.write_text(source.replace(end, plant), encoding="utf-8")
    assert parity.main([str(tree)]) == 1
    assert capsys.readouterr().out == "differs: file d/pheno.csv\n"


def _stub_tree(root: Path, lstm: float) -> Path:
    """A tree whose test_04 repetition ``rep`` ends at tanh 1 + rep, lstm ``lstm`` + rep and
    relu rep / 2, with no training."""
    (root / "tests").mkdir(parents=True)
    (root / "tests" / "test_acceptance.py").write_text(
        "def _final_losses(rep):\n"
        f"    return {{'relu_identity': rep / 2, 'lstm': {lstm} + rep,\n"
        "            'simple_tanh': 1.0 + rep}\n",
        encoding="utf-8")
    return root


@pytest.mark.parametrize("change_lstm, lstm_wins, code", [(0.75, 10, 0), (1.25, 0, 1)])
def test_test04_hashes_the_final_losses_in_one_order(tmp_path, monkeypatch, capsys,
                                                      change_lstm, lstm_wins, code):
    monkeypatch.setattr(parity, "ROOT", _stub_tree(tmp_path / "change", change_lstm))
    assert parity.main(["--test04", str(_stub_tree(tmp_path / "parent", 0.75))]) == code

    def line(lstm, wins):
        text = "\n".join(repr(v) for rep in range(10) for v in (1.0 + rep, lstm + rep, rep / 2))
        digest = hashlib.sha256(text.encode()).hexdigest()
        return f"test_04 sha256 {digest} relu<tanh 10/10 lstm<tanh {wins}/10\n"

    assert capsys.readouterr().out == (f"parent: {line(0.75, 10)}"
                                       f"change: {line(change_lstm, lstm_wins)}")


def test_threads_names_each_output_that_differs_and_passes(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "genoseq"  # a stub program that writes its BLAS thread count
    package.mkdir(parents=True)
    (package / "__init__.py").touch()
    (package / "cli.py").write_text("import os, pathlib\npathlib.Path('threads.txt').write_text("
                                    "os.environ['OPENBLAS_NUM_THREADS'])\n", encoding="utf-8")
    monkeypatch.setattr(parity, "ROOT", tmp_path)
    monkeypatch.setattr(parity, "COMMANDS", [parity._cli("stub")])
    assert parity.main(["--threads"]) == 0
    # the exit code, stdout and stderr of the one command, the three inputs and threads.txt
    assert capsys.readouterr().out == ("differs: file threads.txt\n"
                                       "threads: 1 of 7 outputs differ at 1 and 2 threads\n")
