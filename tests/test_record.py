"""benchmarks/record.py refuses pairs of trees it cannot compare fairly,
before it runs anything, and writes the quartiles of every metric."""

import importlib.util
import json
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


def test_quartiles_of_every_metric(record, tmp_path, monkeypatch):
    # Seed s reads s on the end-to-end metric and 2s or -s on the per-layer ones.
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "setup_s", "better": "lower"}]}))

    def fake_run(tree, workload, seed, seconds, trace):
        metrics = {"a.busy_s": 2.0 * seed, "b.calls": -seed} if trace else {"setup_s": seed}
        return {}, {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(record, "ROOT", tmp_path)
    monkeypatch.setattr(record, "run", fake_run)
    for seeds, want in (("101-105", [[102, 104], [204, 208], [-104, -102]]),
                        ("101", [[101, 101], [202, 202], [-101, -101]])):
        record.main(["--seeds", seeds, "--tree", f"a={tree(tmp_path, 'aa' + seeds)}",
                     "--tree", f"b={tree(tmp_path, 'bb' + seeds)}"])
        doc = json.loads((tmp_path / "benchmarks" / "BENCH_w.json").read_text())
        for label in ("a", "b"):
            runs = doc["runs"][label]
            assert runs["quartiles"] == {"setup_s": want[0]}
            assert runs["quartiles_per_layer"] == {"a.busy_s": want[1], "b.calls": want[2]}
