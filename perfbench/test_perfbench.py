"""Smoke self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q

Runs every workload through `run.py --scale tiny` with tracing off and on,
then checks the emitted metric names, the span tree and the output check.
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
_RUNS = {}


def bench(workload, trace):
    """(detail line, result line) of one tiny benchmark run; cached."""
    key = (workload, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _RUNS[key] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return _RUNS[key]


def load_spans(detail):
    with open(os.path.join(ROOT, detail["spans_file"])) as fh:
        rows = [json.loads(line) for line in fh]
    by_pass = {}
    for r in rows:
        by_pass.setdefault(r.pop("pass"), []).append(tracer.Span(**r))
    return by_pass


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(workload, trace, section):
    _, res = bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= len(workloads.WORKLOADS[workload])
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_failed_commands_are_counted(workload):
    detail, res = bench(workload, 0)
    passes = len(detail["pass_wall_s"])
    assert res["attempted"] == len(workloads.WORKLOADS[workload]) * passes
    assert res["metrics"]["ops_ok_frac"]["value"] == pytest.approx(
        1.0 - res["failed"] / res["attempted"])
    assert bool(res["failed"]) == bool(detail["failures"])


def test_a_raising_command_is_a_failure_with_its_type(tmp_path):
    from worker import run_command

    def crash(argv):
        raise TypeError("not serializable")

    (cmd,) = workloads.commands("thm2-decay", str(tmp_path))
    seconds, error = run_command(types.SimpleNamespace(main=crash), cmd)
    assert error == "raised TypeError: not serializable"
    assert seconds >= 0.0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_self_times_sum_to_each_command(workload):
    detail, _ = bench(workload, 1)
    for spans in load_spans(detail).values():
        own = tracer.self_times(spans)
        by_id = {s.id: s for s in spans}

        def root(s):
            while s.parent is not None:
                s = by_id[s.parent]
            return s

        totals = {}
        for s in spans:
            totals[root(s).id] = totals.get(root(s).id, 0.0) + own[s.id]
        roots = [s for s in spans if s.parent is None]
        assert [r.name for r in roots] == ["cli.main"] * len(workloads.WORKLOADS[workload])
        for r in roots:
            assert totals[r.id] == pytest.approx(r.end - r.start, rel=0.03)


def test_pool_calls_are_children_of_the_sweep():
    detail, _ = bench("thm2-decay", 1)
    for spans in load_spans(detail).values():
        by_id = {s.id: s for s in spans}
        bounds = [s for s in spans if s.name == "spectral.relative_bound"]
        assert bounds
        for s in bounds:
            parent = by_id[s.parent]
            assert parent.name == "decay.uniform_bound_sweep"
            assert parent.thread != s.thread


def test_tracer_restores_every_binding():
    import magpsido.decay
    import magpsido.harness

    before = (magpsido.harness.op_weyl, magpsido.decay.ThreadPoolExecutor,
              magpsido.harness.ScenarioReport.to_json)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert magpsido.harness.op_weyl is not before[0]
        assert magpsido.harness.op_weyl is magpsido.quantize.op_weyl
    finally:
        tr.uninstall()
    assert (magpsido.harness.op_weyl, magpsido.decay.ThreadPoolExecutor,
            magpsido.harness.ScenarioReport.to_json) == before


def test_output_check_rejects_perturbed_reference(tmp_path):
    import magpsido.cli

    from worker import SweepTap

    workloads.write_configs("thm2-decay", 7, "tiny", str(tmp_path))
    (cmd,) = workloads.commands("thm2-decay", str(tmp_path))
    tap = SweepTap()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert magpsido.cli.main(cmd.argv) == 0
        obs = workloads.observe(cmd, tap.take())
    finally:
        tap.close()
    ref = workloads.load_reference(os.path.join(HERE, "reference.json"), "tiny")[cmd.cfg]
    assert workloads.compare(cmd, obs, ref) == []
    perturbations = [("lowest", 0, 1e-6), ("beta_hat", None, 1e-3)]
    for row in range(len(ref["sweep_rows"])):
        perturbations.append((("sweep_rows", row), 1, 1e-4))
    for key, index, delta in perturbations:
        bad = json.loads(json.dumps(ref))
        if isinstance(key, tuple):
            bad[key[0]][key[1]][index] *= 1.0 + delta
        elif index is None:
            bad[key] += delta
        else:
            bad[key][index] += delta
        assert workloads.compare(cmd, obs, bad), key


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thm2-decay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
