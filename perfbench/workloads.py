"""Workload definitions: generated configs, the CLI commands of one pass, and
the checks that every command's output must pass.

The scenario configs are frozen copies of the shipped `configs/*.json` (plus
the generated 2-D assembly config), so that edits to the shipped examples do
not silently change what the benchmark measures. The reference values in
`reference.json` were recorded for exactly these configs.
"""
import copy
import csv
import json
import os
import re

# Frozen copies of the shipped configs; `seed` is filled in per run.
CONFIGS = {
    "thm2_exp_decay": {
        "symbol": "relativistic+gauss_well:depth=2,width=1", "field": "zero",
        "grid": {"d": 1, "L": 30.0, "n": 512},
        "weight": {"kind": "exponential", "p": 1},
        "eps_list": [0.0125, 0.025, 0.05, 0.1], "suites": ["thm2-exp-decay"],
        "essential_threshold": 1.0, "margin": 0.05},
    "cos2d_assembly": {
        "symbol": "relativistic", "field": "cos2d:amp=1",
        "grid": {"d": 2, "L": 6.0, "n": 32}, "suites": []},
    "lemmas_weights": {
        "symbol": "relativistic", "field": "zero",
        "grid": {"d": 1, "L": 20.0, "n": 128},
        "weight": {"kind": "exponential", "p": 1},
        "eps_list": [0.0125, 0.025, 0.05], "suites": ["lemmas-weights"]},
    "quantize_core_2d": {
        "symbol": "relativistic", "field": "constant2d:b=0.5",
        "grid": {"d": 2, "L": 6.0, "n": 16},
        "weight": {"kind": "exponential", "p": 1},
        "eps_list": [0.025, 0.05], "suites": ["quantize-core"]},
    "thm1_rapid_decay": {
        "symbol": "kinetic+gauss_well:depth=2,width=1", "field": "zero",
        "grid": {"d": 1, "L": 30.0, "n": 384},
        "weight": {"kind": "polynomial", "p": 2},
        "eps_list": [0.025, 0.05, 0.1], "suites": ["thm1-rapid-decay"]},
    "thm3_relativistic": {
        "symbol": "relativistic+gauss_well:depth=2,width=1", "field": "zero",
        "grid": {"d": 1, "L": 30.0, "n": 384},
        "weight": {"kind": "exponential", "p": 1},
        "eps_list": [0.025, 0.05, 0.1], "suites": ["thm3-relativistic"]},
}

# Smallest grids (and sweep) on which every check of each config still passes;
# used only by the benchmark's own self-test.
TINY_OVERRIDES = {
    "thm2_exp_decay": {"grid": {"d": 1, "L": 20.0, "n": 160}, "eps_list": [0.025, 0.05]},
    "cos2d_assembly": {"grid": {"d": 2, "L": 6.0, "n": 8}},
    "lemmas_weights": {"grid": {"d": 1, "L": 10.0, "n": 64}},
    "quantize_core_2d": {"grid": {"d": 2, "L": 6.0, "n": 8}},
    "thm1_rapid_decay": {"grid": {"d": 1, "L": 30.0, "n": 224}},
    "thm3_relativistic": {"grid": {"d": 1, "L": 30.0, "n": 64}},
}

SCALES = ("full", "tiny")


def _run(cfg):
    return ("run", cfg)


# One pass of each workload, in order. Why each workload exists:
#   thm2-decay      resolvent work (eps sweeps, contour projector, eigvals);
#                   the zero-field phase table is the all-ones shortcut.
#   cos2d-assembly  one large quadrature phase table, one N=1024 eigh, no
#                   resolvent sweep at all.
#   suite-mix       many small operators, Bessel/Kato diagnostics and MPDO
#                   file I/O; the only workload running relativistic and mpdo.
WORKLOADS = {
    "thm2-decay": [_run("thm2_exp_decay")],
    "cos2d-assembly": [_run("cos2d_assembly")],
    "suite-mix": [_run("lemmas_weights"), _run("quantize_core_2d"),
                  _run("thm1_rapid_decay"), _run("thm3_relativistic"),
                  ("build", "thm1_rapid_decay"), ("spectrum", "thm1_rapid_decay")],
}

SUITES_BY_CONFIG = {name: cfg["suites"] for name, cfg in CONFIGS.items()}


def config_names(workload):
    return sorted({cfg for _, cfg in WORKLOADS[workload]})


def make_config(name, seed, scale="full"):
    cfg = copy.deepcopy(CONFIGS[name])
    if scale == "tiny":
        cfg.update(copy.deepcopy(TINY_OVERRIDES[name]))
    cfg["seed"] = int(seed)
    return cfg


def write_configs(workload, seed, scale, workdir):
    """Write the workload's configs into `workdir` as `<name>.json`."""
    for name in config_names(workload):
        with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
            json.dump(make_config(name, seed, scale), fh, sort_keys=True, indent=2)


class Command:
    """One CLI invocation of a pass, with the files it reads and writes."""

    def __init__(self, kind, cfg, workdir):
        self.kind = kind
        self.cfg = cfg
        self.config_path = os.path.join(workdir, f"{cfg}.json")
        out = os.path.join(workdir, "out")
        self.op_path = os.path.join(out, f"{cfg}.mpdo")
        if kind == "run":
            self.out_path = os.path.join(out, f"{cfg}.report.json")
            self.argv = ["run", "--config", self.config_path, "--out", self.out_path]
        elif kind == "build":
            self.out_path = self.op_path
            self.argv = ["build", "--config", self.config_path, "--out", self.out_path]
        elif kind == "spectrum":
            self.out_path = os.path.join(out, f"{cfg}.spectrum.csv")
            self.argv = ["spectrum", "--op", self.op_path, "--threshold", "1.0",
                         "--out", self.out_path]
        else:
            raise ValueError(f"unknown command kind {kind!r}")
        self.label = f"{kind}:{cfg}"

    def clear_output(self):
        """Remove a previous pass's output so a stale file is never checked."""
        if os.path.exists(self.out_path):
            os.unlink(self.out_path)


def commands(workload, workdir):
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    return [Command(kind, cfg, workdir) for kind, cfg in WORKLOADS[workload]]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

LOWEST_COUNT = 8
EIG_RTOL = 1e-9        # spectra: assembly and eigh are deterministic to roundoff
SWEEP_RTOL = 1e-6      # relative bounds: power iteration converges to 1e-8
BETA_ATOL = 1.5e-4     # beta-hat is printed with 4 decimals
MPDO_HEADER_BYTES = 6 + 20


def _beta_hat(report):
    for checks in report["suites"].values():
        for c in checks:
            if c["name"] == "exponential-decay-fit":
                m = re.search(r"beta-hat ([-0-9.eE+]+)", c["details"])
                return float(m.group(1)) if m else None
    return None


def observe(cmd, sweeps):
    """Values of a finished command's output that the reference pins down.

    `sweeps` holds the row lists returned by every `uniform_bound_sweep` call
    made during the command. Raises OSError/ValueError/KeyError on a missing
    or malformed output, which the caller counts as a failed check.
    """
    if cmd.kind == "run":
        with open(cmd.out_path) as fh:
            report = json.load(fh)
        obs = {"all_passed": bool(report["all_passed"]), "timings": report["timings"],
               "lowest": [float(v) for v in report["spectra_summary"]["lowest"]]}
        if "thm2-exp-decay" in SUITES_BY_CONFIG[cmd.cfg]:
            obs["beta_hat"] = _beta_hat(report)
            obs["sweeps"] = [[[float(e), float(rb), float(erb), bool(ok)]
                              for e, rb, erb, ok in rows] for rows in sweeps]
        return obs
    if cmd.kind == "build":
        return {"file_bytes": os.path.getsize(cmd.out_path)}
    with open(cmd.out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"lowest": [float(r["eigenvalue"]) for r in rows[:LOWEST_COUNT]]}


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def compare(cmd, obs, ref):
    """Mismatches between observed output and the config's reference entry."""
    bad = []
    if cmd.kind == "run" and not obs["all_passed"]:
        bad.append("all_passed is false")
    if cmd.kind == "build":
        n = ref["size"]
        want = MPDO_HEADER_BYTES + 16 * n * n
        if obs["file_bytes"] != want:
            bad.append(f"operator file has {obs['file_bytes']} bytes, want {want}")
        return bad
    lowest = obs["lowest"]
    want = ref["lowest"]
    if len(lowest) != len(want) or not all(
            _close(a, b, EIG_RTOL) for a, b in zip(lowest, want)):
        bad.append(f"lowest eigenvalues {lowest} differ from reference {want}")
    if cmd.kind == "run" and "beta_hat" in ref:
        beta = obs.get("beta_hat")
        if beta is None or abs(beta - ref["beta_hat"]) > BETA_ATOL:
            bad.append(f"beta-hat {beta} differs from reference {ref['beta_hat']}")
        sweeps = obs.get("sweeps") or []
        if not sweeps:
            bad.append("no eps sweep was run")
        for rows in sweeps:
            want_rows = ref["sweep_rows"]
            same = len(rows) == len(want_rows) and all(
                r[0] == w[0] and r[3] == w[3] and _close(r[1], w[1], SWEEP_RTOL)
                and _close(r[2], w[2], SWEEP_RTOL) for r, w in zip(rows, want_rows))
            if not same:
                bad.append(f"sweep rows {rows} differ from reference {want_rows}")
    return bad


def load_reference(path, scale):
    with open(path) as fh:
        return json.load(fh)[scale]
