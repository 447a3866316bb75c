#!/usr/bin/env python3
"""magpsido benchmark: time `magpsido` CLI scenarios end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload thm2-decay --seed 1 --seconds 25 --trace 0

Workloads and metrics are listed in BENCHMARK.json. With `--trace 0` the last
line of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run. The line before
it records the machine, the pass times and every failed command. Full
results, and with `--trace 1` the spans, are written to `.perfbench-out/`.

Each run generates the workload's configs from `--seed`, times set-up in
several fresh interpreters, then runs the workload in one fresh worker
process (`worker.py`) that checks every command's output against
`reference.json`. Environment knobs such as MAGPSIDO_THREADS are passed
through untouched.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 5
TIME_LIMIT_S = 170.0       # every run must end well inside 180 s


def _child(argv, env, timeout):
    """Run a worker process to completion; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="magpsido scenario benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny grids, for the benchmark's self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "magpsido", "__init__.py")):
        print(f"no magpsido sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(root, ".perfbench-out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = workdir
    common = ["--workload", args.workload, "--workdir", workdir, "--scale", args.scale]
    try:
        workloads.write_configs(args.workload, args.seed, args.scale, workdir)
        setups = []
        for _ in range(SETUP_RUNS):
            left = TIME_LIMIT_S - (time.perf_counter() - started)
            setups.append(_child(["setup"] + common, env, left)["setup_s"])
        left = TIME_LIMIT_S - (time.perf_counter() - started)
        res = _child(["run"] + common + [
            "--root", root, "--out-dir", out_dir, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)], env, left)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = res["commands"]
    failed = [o for o in outcomes if o["error"] or o["mismatch"]]
    untraced = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    figures = dict(res.get("layers", {}))
    figures.update({
        "wall_s": statistics.median(untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_frac": 1.0 - len(failed) / len(outcomes),
    })
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"benchmark emits no figure for {missing}", file=sys.stderr)
        return 2
    detail = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "machine": res["machine"], "setup_runs_s": setups,
        "pass_wall_s": [p["wall_s"] for p in res["passes"]],
        "pass_traced": [p["traced"] for p in res["passes"]],
        "spans_file": res.get("spans_file"),
        "failures": sorted({(o["command"], o["error"] or "; ".join(o["mismatch"]))
                            for o in failed}),
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(detail, commands=outcomes, figures=figures), fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({
        # a command that raised counts as failed; `correct` is false only when
        # a command finished with output that disagrees with the reference
        "correct": not any(o["mismatch"] for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
