"""Every shipped config runs clean through the CLI and writes parseable JSON."""
import glob
import json
import os

import numpy as np
import pytest

from magpsido.cli import main as cli_main
from magpsido.harness import Check

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")
CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def _load_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_shipped_configs_exist():
    assert CONFIGS, f"no configs under {CONFIG_DIR}"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: os.path.basename(p)[:-5])
def test_run_every_shipped_config(config, tmp_path):
    out = str(tmp_path / "report.json")
    assert cli_main(["run", "--config", config, "--out", out]) == 0
    assert _load_report(out)["all_passed"] is True


def test_verify_out_thm3_relativistic(tmp_path):
    out = str(tmp_path / "verify.json")
    config = os.path.join(CONFIG_DIR, "thm3_relativistic.json")
    assert cli_main(["verify", "thm3-relativistic", "--config", config,
                     "--out", out]) == 0
    assert _load_report(out)["all_passed"] is True


def test_check_fields_are_builtin_types():
    c = Check("name", "inv", np.float64(1e-6) < 1e-5, np.float64(9e-6))
    assert type(c.passed) is bool and type(c.margin) is float
    assert json.loads(json.dumps(c.__dict__))["passed"] is True
