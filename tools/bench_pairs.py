#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized per metric.

Runs `perfbench/run.py` in two checkouts of the repository, one pair per
seed, and alternates which side runs first; each run lasts BENCHMARK.json's
`run_seconds`. Writes BENCH_<workload>.json
with the machine line, the commit of each side, every run's end-to-end
metrics, and per metric each side's median and quartiles, how many pairs
the change won (ties count for neither side), the median of the paired
differences (change - parent, seed by seed), and whether the change is
`resolved` as better: it won at least nine tenths of the pairs and its
median beats the parent's by more than the parent's interquartile range:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload cos2d-assembly --seeds 101-110 --out BENCH_cos2d-assembly.json

Both checkouts must hold committed trees; each run writes `.perfbench-out/`
inside its own checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text):
    """The seeds of "first" or "first-last". Fewer than two is refused before
    any run: each side's quartiles need two runs."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed or a seed range: {text!r}") from None
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            f"{text!r} gives {len(seeds)} seed(s); the quartiles need at least two, "
            f"e.g. 101-110")
    return seeds


def _commit(root):
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


def _run(root, workload, seed, seconds):
    """One benchmark run in `root`: (machine line, result line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=root, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail["machine"], result


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs, spec):
    """Per end-to-end metric: each side's median and quartiles, the change's
    wins over the pairs, the median paired difference, and `resolved`."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        sides = {"parent": _spread(parent), "change": _spread(change)}
        gain = sides["change"]["median"] - sides["parent"]["median"]
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], **sides, "change_wins": wins, "ties": ties,
                     "pairs": len(runs),
                     "median_diff": statistics.median(c - p for p, c in zip(parent, change)),
                     "resolved": (10 * wins >= 9 * len(runs)
                                  and (-gain if lower else gain) > sides["parent"]["iqr"])}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="a range of at least two seeds, e.g. 101-110")
    parser.add_argument("--out", help="output file (default BENCH_<workload>.json)")
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    runs, machine = [], None
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            machine, run[side] = _run(sides[side], args.workload, seed, spec["run_seconds"])
        runs.append(run)
        print(json.dumps({k: run[k] if k in ("seed", "first") else
                          run[k]["metrics"]["wall_s"]["value"] for k in run}), flush=True)

    report = {
        "workload": args.workload, "seconds": spec["run_seconds"], "machine": machine,
        "commits": {side: _commit(root) for side, root in sides.items()},
        "correct": all(r[s]["correct"] for r in runs for s in sides),
        "metrics": summarize(runs, spec), "runs": runs,
    }
    out = args.out or f"BENCH_{args.workload}.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
