"""tools/bench_pairs.py, loaded by path: seed specs are checked before any run."""
import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools",
                      "bench_pairs.py")


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = []
    monkeypatch.setattr(module, "_run", lambda *args: runs.append(args))
    module.runs = runs
    return module


def test_seed_range_lists_every_seed(bench_pairs):
    assert bench_pairs._seeds("101-110") == list(range(101, 111))
    assert bench_pairs._seeds("7-8") == [7, 8]


@pytest.mark.parametrize("spec", ["5", "110-101", "101-101", "x", "-3", ""])
def test_fewer_than_two_seeds_refused_before_any_run(bench_pairs, spec, tmp_path, capsys):
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "suite-mix",
            "--seeds", spec]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert bench_pairs.runs == []
    assert not list(tmp_path.iterdir())
