"""Runs one workload in this fresh process; started by `run.py`.

    worker.py setup  --workload W --workdir D [--scale S]
        Import magpsido, load and validate the workload's configs and build
        their scenario contexts; print the seconds that took.

    worker.py run    --workload W --workdir D --seconds T --trace 0|1 ...
        Closed loop with one caller: repeat passes over the workload's CLI
        commands until T seconds are used (at least MIN_PASSES passes), check
        every command's output, and print one JSON summary line. With
        --trace 1, untraced and traced passes alternate and the summary
        carries per-layer figures.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# Peak RSS settles only after the second pass, and a traced run needs an
# untraced and a traced pass.
MIN_PASSES = 2


def cmd_setup(args):
    import magpsido.cli  # noqa: F401  (the entry point users start from)
    from magpsido.harness import ScenarioConfig, scenario_context

    import workloads

    for name in workloads.config_names(args.workload):
        cfg = ScenarioConfig.from_json(os.path.join(args.workdir, f"{name}.json"))
        scenario_context(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


def machine_info():
    import numpy as np
    import scipy

    import magpsido

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "backend": magpsido.backend(),
        "MAGPSIDO_THREADS": os.environ.get("MAGPSIDO_THREADS"),
        "MAGPSIDO_NUMBA": os.environ.get("MAGPSIDO_NUMBA"),
    }


class SweepTap:
    """Keeps the rows returned by every `decay.uniform_bound_sweep` call.

    The run report does not carry the eps-sweep rows, so the output check
    reads them here. The tap is installed for every pass, traced or not, and
    costs one extra Python call per sweep.
    """

    def __init__(self):
        import magpsido.decay as decay

        self.calls = []
        self._decay = decay
        self._orig = decay.uniform_bound_sweep
        orig = self._orig
        calls = self.calls

        def uniform_bound_sweep(*a, **kw):
            rows, eps0 = orig(*a, **kw)
            calls.append(rows)
            return rows, eps0

        uniform_bound_sweep.__module__ = orig.__module__
        uniform_bound_sweep.__doc__ = orig.__doc__
        decay.uniform_bound_sweep = uniform_bound_sweep

    def take(self):
        rows = list(self.calls)
        self.calls.clear()
        return rows

    def close(self):
        self._decay.uniform_bound_sweep = self._orig


def run_command(cli, cmd):
    """One CLI call; returns (seconds, error or None). Output is captured."""
    cmd.clear_output()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(cmd.argv)
    except Exception as exc:  # a crash is a failed command, never fatal here
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, (None if rc == 0 else f"exit code {rc}")


def cmd_run(args):
    import magpsido
    import magpsido.cli as cli

    import metrics
    import tracer as tracing
    import workloads

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(magpsido.__file__).startswith(src + os.sep):
        print(f"magpsido imported from {magpsido.__file__}, not {src}", file=sys.stderr)
        return 2
    reference = workloads.load_reference(os.path.join(HERE, "reference.json"), args.scale)
    tap = SweepTap()
    tiny_dir = os.path.join(args.workdir, "warmup")
    os.makedirs(tiny_dir, exist_ok=True)
    workloads.write_configs(args.workload, args.seed, "tiny", tiny_dir)
    # warm-up at tiny sizes: lazy imports, allocator and BLAS thread start-up
    for cmd in workloads.commands(args.workload, tiny_dir):
        run_command(cli, cmd)
    tap.take()

    cmds = workloads.commands(args.workload, args.workdir)
    tr = tracing.Tracer()
    passes = []
    outcomes = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        mark = len(tr.spans)
        if traced:
            tr.install()
        wall = 0.0
        for cmd in cmds:
            seconds, error = run_command(cli, cmd)
            wall += seconds
            mismatch = []
            obs = {}
            if error is None:
                try:
                    obs = workloads.observe(cmd, tap.take())
                    mismatch = workloads.compare(cmd, obs, reference[cmd.cfg])
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    mismatch = [f"unreadable output: {type(exc).__name__}: {exc}"]
            tap.take()
            outcomes.append({"pass": index, "command": cmd.label, "seconds": seconds,
                             "error": error, "mismatch": mismatch,
                             "timings": obs.get("timings")})
        if traced:
            tr.uninstall()
        passes.append({"index": index, "traced": traced, "wall_s": wall,
                       "spans": (mark, len(tr.spans))})
        index += 1
        left = deadline - time.perf_counter()
        # stop before a pass that would not fit, but only after MIN_PASSES
        if (len(passes) >= MIN_PASSES
                and left < statistics.median(p["wall_s"] for p in passes)):
            break
    tap.close()

    result = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "machine": machine_info(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "commands": outcomes,
    }
    if args.trace:
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        pass_of = {}
        for p in passes:
            for i in range(*p["spans"]):
                pass_of[tr.spans[i].id] = p["index"]
        tr.write_jsonl(spans_path, lambda s: {"pass": pass_of[s.id]})
        traced_passes = [p for p in passes if p["traced"]]
        result["layers"] = metrics.per_layer(
            [(tr.spans[slice(*p["spans"])],
              [o["timings"] for o in outcomes if o["pass"] == p["index"]])
             for p in traced_passes],
            [p["wall_s"] for p in traced_passes],
            [p["wall_s"] for p in passes if not p["traced"]])
        result["spans_file"] = os.path.relpath(spans_path, args.root)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", default=os.getcwd())
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
