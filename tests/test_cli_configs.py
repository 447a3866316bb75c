"""Every shipped config runs through every CLI command that accepts a config."""
import glob
import json
import os

import numpy as np
import pytest

from magpsido.cli import main as cli_main
from magpsido.harness import Check
from magpsido.mpdo import save_operator
from magpsido.quantize import Grid, OperatorMatrix

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")
CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
# configs whose operator has no eigenvalue below essential_threshold - margin
NO_BOUND_STATE = {"lemmas_weights", "quantize_core_2d"}


def _name(path):
    return os.path.basename(path)[:-5]


def _load_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_shipped_configs_exist():
    assert CONFIGS, f"no configs under {CONFIG_DIR}"


@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_run_every_shipped_config(config, tmp_path):
    out = str(tmp_path / "report.json")
    assert cli_main(["run", "--config", config, "--out", out]) == 0
    assert _load_report(out)["all_passed"] is True


def _config_suites():
    for config in CONFIGS:
        with open(config) as fh:
            for suite in json.load(fh)["suites"]:
                yield pytest.param(config, suite, id=f"{_name(config)}-{suite}")


@pytest.mark.parametrize("config, suite", _config_suites())
def test_verify_every_config_suite(config, suite, tmp_path):
    out = str(tmp_path / "verify.json")
    assert cli_main(["verify", suite, "--config", config, "--out", out]) == 0
    assert _load_report(out)["all_passed"] is True


def test_check_fields_are_builtin_types():
    c = Check("name", "inv", np.float64(1e-6) < 1e-5, np.float64(9e-6))
    assert type(c.passed) is bool and type(c.margin) is float
    assert json.loads(json.dumps(c.__dict__))["passed"] is True


@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_build_every_shipped_config(config, tmp_path):
    op, report = str(tmp_path / "op.mpdo"), str(tmp_path / "build.json")
    assert cli_main(["build", "--config", config, "--out", op, "--report", report]) == 0
    assert os.path.getsize(op) > 0
    assert _load_report(report)["operator_file"] == op


def _recording(monkeypatch, module, solves):
    """Wrap `module.eig_hermitian` so that each decomposition lands in `solves`."""
    solve = module.eig_hermitian

    def wrapper(*args, **kwargs):
        dec = solve(*args, **kwargs)
        solves.append(dec)
        return dec

    monkeypatch.setattr(module, "eig_hermitian", wrapper)


@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_zero_field_configs_take_the_parity_blocks(config, tmp_path, monkeypatch):
    # a roundoff asymmetry in assembly would silently send these operators
    # back to the full solve, at four times the flops
    import magpsido.harness as hs
    with open(config) as fh:
        raw = json.load(fh)
    n, zero = raw["grid"]["n"], raw["field"] == "zero"
    assert zero == (_name(config) != "quantize_core_2d")
    solves = []
    _recording(monkeypatch, hs, solves)
    out = str(tmp_path / "report.json")
    assert cli_main(["run", "--config", config, "--out", out]) == 0
    summary = _load_report(out)["spectra_summary"]
    blocks = summary["parity_blocks"]
    assert blocks == ([n // 2 + 1, n // 2 - 1] if zero else None)
    # quantize_core_2d's constant field, in the gauge centred on the
    # lattice, is solved as one real block
    name = "parity" if zero else "conjugate-reflection"
    assert summary["symmetry"] == name
    for dec in solves:
        assert dec.symmetry.name == name
        assert dec.symmetry.sizes == (blocks if zero else [n * n])


def test_spectrum_of_a_built_thm1_operator_takes_the_parity_blocks(tmp_path, monkeypatch):
    # the command solves for eigenvalues only, by the blocks block_symmetry picks
    import magpsido.cli as cli
    import magpsido.spectral as sp
    op, out = str(tmp_path / "op.mpdo"), str(tmp_path / "spectrum.csv")
    assert cli_main(["build", "--config", os.path.join(CONFIG_DIR, "thm1_rapid_decay.json"),
                     "--out", op]) == 0
    picked, pick = [], sp.block_symmetry
    monkeypatch.setattr(sp, "block_symmetry", lambda o: picked.append(pick(o)) or picked[-1])
    assert not hasattr(cli, "eig_hermitian")
    assert cli_main(["spectrum", "--op", op, "--threshold", "0.0", "--out", out]) == 0
    assert [sym.sizes for sym in picked] == [[193, 191]]


@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_decay_every_shipped_config(config, tmp_path, capsys):
    out = str(tmp_path / "decay.json")
    code = cli_main(["decay", "--config", config, "--out", out])
    if _name(config) in NO_BOUND_STATE:
        assert code == 1
        assert "no discrete spectrum" in capsys.readouterr().out
        assert not os.path.exists(out)
    else:
        assert code == 0
        assert set(_load_report(out)["fits"]) == {"exponential", "polynomial"}


@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_conjugate_every_shipped_config(config, tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli_main(["conjugate", "--config", config, "--out", str(out)]) == 0
    with open(config) as fh:
        eps_list = json.load(fh)["eps_list"]
    assert len(out.read_text().splitlines()) == 1 + len(eps_list)


def test_conjugate_rejects_non_numeric_eps_list(tmp_path, capsys):
    config = os.path.join(CONFIG_DIR, "thm2_exp_decay.json")
    code = cli_main(["conjugate", "--config", config, "--eps-list", "0.1,abc",
                     "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert "--eps-list" in capsys.readouterr().err


NON_FINITE_ARGS = {
    "spectrum-threshold": ["spectrum", "--threshold", "nan"],
    "spectrum-margin": ["spectrum", "--threshold", "1.0", "--margin", "inf"],
    "semigroup-t": ["semigroup", "--t", "nan", "--n", "16"],
    "semigroup-L": ["semigroup", "--t", "1.0", "--L", "nan", "--n", "16"],
    "kato-t0": ["kato", "--potential", "bounded_bump", "--t0", "nan", "--n", "16"],
    # 1e400 parses as inf, which passes a bare `t > 0`
    "semigroup-t-inf": ["semigroup", "--t", "1e400", "--n", "16"],
    "semigroup-s-inf": ["semigroup", "--t", "1", "--s", "1e400", "--n", "16"],
    "kato-t0-inf": ["kato", "--potential", "bounded_bump", "--t0", "1e400", "--n", "16"],
}


@pytest.mark.parametrize("case", NON_FINITE_ARGS)
def test_non_finite_numbers_exit_2(case, tmp_path, capsys):
    argv = NON_FINITE_ARGS[case] + ["--out", str(tmp_path / "out")]
    if argv[0] == "spectrum":
        op = str(tmp_path / "op.mpdo")
        save_operator(OperatorMatrix(np.diag([0.5, 2.0, 3.0, 4.0]) + 0j,
                                     Grid(1, 1.0, 4), symmetrized=True), op)
        argv += ["--op", op]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(tmp_path / "out")


# grids whose work arrays the budget refuses by arithmetic alone
OVERSIZED_GRIDS = {
    "semigroup-2d": ["semigroup", "--t", "1", "--d", "2", "--n", "100000000"],
    "semigroup-1d": ["semigroup", "--t", "1", "--n", "1000000000"],
    "kato-2d": ["kato", "--potential", "bounded_bump", "--d", "2", "--n", "100000"],
}


@pytest.mark.parametrize("case", OVERSIZED_GRIDS)
def test_oversized_grid_exits_2_before_allocating(case, tmp_path, capsys, monkeypatch):
    def allocates(*args, **kwargs):
        raise AssertionError("the grid reached an allocation")

    for name in ("semigroup_checks", "kato_scan", "kato_estimate"):
        monkeypatch.setattr(f"magpsido.relativistic.{name}", allocates)
    monkeypatch.setattr(Grid, "nodes", property(allocates))
    assert cli_main(OVERSIZED_GRIDS[case] + ["--out", str(tmp_path / "out")]) == 2
    assert "GB budget" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


# argv of each case; {tmp} holds a malformed config and a report directory
# whose one report is malformed
UNREADABLE_INPUTS = {
    "run-missing-config": ["run", "--config", "{tmp}/missing.json"],
    "run-malformed-config": ["run", "--config", "{tmp}/malformed.json"],
    "build-malformed-config": ["build", "--config", "{tmp}/malformed.json"],
    "decay-malformed-config": ["decay", "--config", "{tmp}/malformed.json"],
    "conjugate-malformed-config": ["conjugate", "--config", "{tmp}/malformed.json"],
    "verify-malformed-config": ["verify", "lemmas-weights", "--config",
                                "{tmp}/malformed.json"],
    "spectrum-missing-op": ["spectrum", "--op", "{tmp}/missing.mpdo", "--threshold", "1"],
    "report-missing-dir": ["report", "--in", "{tmp}/missing_dir"],
    "report-malformed-report": ["report", "--in", "{tmp}/reports"],
    "kato-negative-halvings": ["kato", "--potential", "bounded_bump", "--t-scan",
                               "--halvings", "-1", "--n", "16"],
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_unreadable_inputs_exit_2(case, tmp_path, capsys):
    (tmp_path / "malformed.json").write_text('{"symbol": "relativistic",')
    (tmp_path / "reports").mkdir()
    (tmp_path / "reports" / "a.json").write_text("[1,")
    argv = [a.format(tmp=tmp_path) for a in UNREADABLE_INPUTS[case]]
    assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(tmp_path / "out")


SMALL_CONFIG = {"symbol": "relativistic+gauss_well:depth=2,width=1",
                "grid": {"d": 1, "L": 10.0, "n": 32}, "eps_list": [0.025, 0.05]}

# argv of each command whose one output is --out; {tmp} holds a small config
# and a small stored operator
FILE_WRITERS = {
    "build": ["build", "--config", "{tmp}/small.json"],
    "spectrum": ["spectrum", "--op", "{tmp}/small.mpdo", "--threshold", "1.0"],
    "conjugate": ["conjugate", "--config", "{tmp}/small.json"],
    "kato": ["kato", "--potential", "bounded_bump", "--n", "16"],
    "semigroup": ["semigroup", "--t", "1.0", "--n", "16", "--L", "5"],
}


def _writer_argv(case, tmp_path, out):
    (tmp_path / "small.json").write_text(json.dumps(SMALL_CONFIG))
    save_operator(OperatorMatrix(np.diag([0.5, 2.0, 3.0, 4.0]), Grid(1, 1.0, 4),
                                 symmetrized=True), str(tmp_path / "small.mpdo"))
    return [a.format(tmp=tmp_path) for a in FILE_WRITERS[case]] + ["--out", str(out)]


@pytest.mark.parametrize("case", FILE_WRITERS)
def test_output_into_missing_directory(case, tmp_path):
    out = tmp_path / "new" / "deeper" / "out"
    assert cli_main(_writer_argv(case, tmp_path, out)) == 0
    assert out.stat().st_size > 0
    assert os.listdir(out.parent) == ["out"]


@pytest.mark.parametrize("case", FILE_WRITERS)
def test_output_under_a_regular_file_exits_2(case, tmp_path, capsys):
    (tmp_path / "blocker").write_text("")
    out = tmp_path / "blocker" / "out"
    assert cli_main(_writer_argv(case, tmp_path, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_2_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = cli_main(["semigroup", "--t", "1.0", "--n", "16", "--L", "5"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_closed_pipe_process_exits_2_without_traceback():
    # the read end is closed before the command starts, so its first write or
    # its final flush meets EPIPE whatever the timing
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(CONFIG_DIR), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "magpsido.cli", "semigroup", "--t", "1.0",
             "--n", "16", "--L", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr


def _loaded_before_and_after_run(config, out, modules):
    """In a fresh interpreter: which of `modules` are in sys.modules after
    importing magpsido.cli, and after `run` on `config`; with run's exit code."""
    import subprocess
    import sys

    code = ("import json, sys\n"
            "import magpsido.cli as cli\n"
            f"loaded = lambda: [m in sys.modules for m in {list(modules)!r}]\n"
            "seen = [loaded()]\n"
            "rc = cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "seen.append(loaded())\n"
            "print(json.dumps([rc, seen]))\n")
    src = os.path.join(os.path.dirname(CONFIG_DIR), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code, str(config), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_start_up_and_a_no_suite_run_leave_scipy_linalg_unloaded(tmp_path):
    # importing scipy.linalg costs about 0.3 s per start; the eigenvalue-only
    # solve and the relative bound stay in numpy. jsonschema costs about 0.1 s;
    # configs are checked by harness's own schema interpreter
    cfg = tmp_path / "cos2d.json"
    cfg.write_text(json.dumps({"symbol": "relativistic", "field": "cos2d:amp=1",
                               "grid": {"d": 2, "L": 6.0, "n": 8}, "suites": []}))
    seen = _loaded_before_and_after_run(cfg, tmp_path / "r.json",
                                        ["scipy.linalg", "jsonschema"])
    assert seen == [0, [[False, False]] * 2]


def test_thm3_run_leaves_scipy_special_unloaded(tmp_path):
    # thm3 checks the config's operator; only the kernel commands (semigroup,
    # kato) evaluate Bessel K and pay for the scipy.special import
    cfg = os.path.join(CONFIG_DIR, "thm3_relativistic.json")
    seen = _loaded_before_and_after_run(cfg, tmp_path / "r.json", ["scipy.special"])
    assert seen == [0, [[False]] * 2]


def _shipped_with(tmp_path, name, edit):
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        raw = json.load(fh)
    edit(raw)
    path = tmp_path / f"{name}-edited.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _checks(report):
    return {suite: [(c["name"], c["passed"], c["margin"]) for c in checks]
            for suite, checks in report["suites"].items()}


def test_integral_float_spellings_run_as_their_integers(tmp_path):
    # JSON Schema counts 1.0 as an integer; lemmas-weights multiplies lists by
    # d and seeds a generator from seed, both of which need an int
    def as_floats(raw):
        raw["grid"]["d"] = float(raw["grid"]["d"])
        raw["grid"]["n"] = float(raw["grid"]["n"])
        raw["weight"]["p"] = float(raw["weight"]["p"])
        raw["seed"] = float(raw["seed"])

    reports = []
    for config in (os.path.join(CONFIG_DIR, "lemmas_weights.json"),
                   _shipped_with(tmp_path, "lemmas_weights", as_floats)):
        out = str(tmp_path / f"report{len(reports)}.json")
        assert cli_main(["run", "--config", config, "--out", out]) == 0
        reports.append(_load_report(out))
    assert reports[1]["config_hash"] == reports[0]["config_hash"]
    assert _checks(reports[1]) == _checks(reports[0])


def test_negative_seed_exits_2(tmp_path, capsys):
    config = _shipped_with(tmp_path, "lemmas_weights", lambda raw: raw.update(seed=-1))
    out = tmp_path / "report.json"
    assert cli_main(["run", "--config", config, "--out", str(out)]) == 2
    assert "-1 is less than the minimum of 0" in capsys.readouterr().err
    assert not out.exists()
