"""tools/bench_pairs.py, loaded by path: seed specs are checked before any run,
and pairs are scored as choosing-metrics section 8 asks."""
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


SPEC = {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
                       {"name": "ops_ok_frac", "unit": "fraction", "better": "higher",
                        "bound": 0.01}]}


def synthetic_runs(parent, change, metric="peak_rss_mb", other=1.0):
    """One pair per (parent, change) value, seeds 1, 2, ..."""
    def side(value, other_value):
        return {"metrics": {metric: {"value": value},
                            **{m["name"]: {"value": other_value} for m in SPEC["end_to_end"]
                               if m["name"] != metric}}}
    return [{"seed": i + 1, "parent": side(p, other), "change": side(c, other)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_clear_win_is_resolved(bench_pairs):
    parent = [73.0, 73.1, 73.2, 73.0, 73.3, 73.1, 73.2, 73.0, 73.1, 73.2]
    change = [57.5, 57.4, 57.6, 57.5, 57.4, 57.5, 57.6, 57.5, 57.4, 57.5]
    out = bench_pairs.summarize(synthetic_runs(parent, change), SPEC)["peak_rss_mb"]
    assert out["change_wins"] == 10 and out["ties"] == 0 and out["pairs"] == 10
    assert out["median_diff"] == pytest.approx(-15.6)
    assert out["resolved"] is True


def test_eight_wins_in_ten_are_not_resolved(bench_pairs):
    parent = [73.0] * 10
    change = [57.0] * 8 + [73.5, 73.5]
    out = bench_pairs.summarize(synthetic_runs(parent, change), SPEC)["peak_rss_mb"]
    assert out["change_wins"] == 8 and out["median_diff"] == pytest.approx(-16.0)
    assert out["resolved"] is False


def test_a_gap_inside_the_parent_spread_is_not_resolved(bench_pairs):
    # the change wins every pair, by less than the parent's interquartile range
    parent = [70.0, 76.0] * 5
    change = [p - 0.5 for p in parent]
    out = bench_pairs.summarize(synthetic_runs(parent, change), SPEC)["peak_rss_mb"]
    assert out["change_wins"] == 10 and out["parent"]["iqr"] == pytest.approx(6.0)
    assert out["median_diff"] == pytest.approx(-0.5)
    assert out["resolved"] is False


def test_higher_is_better_metrics_are_scored_upwards(bench_pairs):
    parent = [0.90, 0.91] * 5
    change = [1.0] * 10
    runs = synthetic_runs(parent, change, metric="ops_ok_frac", other=50.0)
    out = bench_pairs.summarize(runs, SPEC)
    assert out["ops_ok_frac"]["change_wins"] == 10 and out["ops_ok_frac"]["resolved"] is True
    assert out["ops_ok_frac"]["median_diff"] == pytest.approx(0.095)
    # equal runs: no wins, every pair a tie, nothing resolved
    assert out["peak_rss_mb"]["ties"] == 10 and out["peak_rss_mb"]["resolved"] is False
    assert out["peak_rss_mb"]["median_diff"] == 0.0
