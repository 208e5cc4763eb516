"""benchmarks/record.py refuses pairs of trees it cannot compare fairly,
before it runs anything."""

import importlib.util
import sys
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"


@pytest.fixture
def record(monkeypatch):
    spec = importlib.util.spec_from_file_location("record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_run(*args, **kwargs):
        raise AssertionError("record.py ran a tree")

    monkeypatch.setattr(module.subprocess, "run", no_run)
    return module


def tree(root: Path, name: str) -> Path:
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text("")
    return root / name


def test_paths_of_different_lengths_refused(record, tmp_path, capsys):
    args = ["--seeds", "101-102", "--tree", f"a={tree(tmp_path, 'one')}",
            "--tree", f"b={tree(tmp_path, 'three')}"]
    with pytest.raises(SystemExit):
        record.main(args)
    assert "one length" in capsys.readouterr().err


@pytest.mark.parametrize("top", ["src/covnet", "perfbench"])
def test_bytecode_caches_refused_when_writing_is_off(record, tmp_path, monkeypatch, capsys, top):
    a, b = tree(tmp_path, "aa"), tree(tmp_path, "bb")
    (b / top / "__pycache__").mkdir(parents=True)
    args = ["--seeds", "101-102", "--tree", f"a={a}", "--tree", f"b={b}"]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    with pytest.raises(SystemExit):
        record.main(args)
    assert "tree 'b' holds __pycache__" in capsys.readouterr().err
    # With bytecode writing on, the same trees pass the checks and reach a run.
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    with pytest.raises(AssertionError, match="ran a tree"):
        record.main(args)
