"""Command-line interface.

Commands: build, spectrum, decay, conjugate, semigroup, kato, verify, report.
Exit code 0 iff every selected check passed; 2 on an error, including a
reader that closed stdout early.
"""
import argparse
import json
import os
import sys

import numpy as np

from . import decay as dk
from . import relativistic as rel
from .errors import BudgetError, ConfigError, MagpsidoError
from .harness import (SUITE_NAMES, Scenario, ScenarioConfig, ScenarioReport, _strict_json,
                      merge_reports, run_scenario, verify_suite, write_atomic,
                      write_kato_csv, write_spectrum_csv, write_sweep_csv)
from .mpdo import LOAD_BUDGET_BYTES, file_hash, load_operator, save_operator
from .potentials import potential_from_id
from .quantize import Grid, GridFunction, hermitize
from .spectral import SpectralWindow, discrete_spectrum_select, eig_hermitian


def _add_grid_args(p):
    p.add_argument("--d", type=int, default=1, choices=(1, 2))
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--L", type=float, default=20.0)


# float64 words per node that each grid command holds at once, besides the d
# words of the node positions. Measured peak RSS growth, positions included:
# semigroup 17.4 words per node in 1-D (n = 1e6; 14-16 of them grow with n,
# the rest is the FFT plan and the scipy.special import) and 15.7 in 2-D
# (n = 768; 10 grow with n); kato 11.1 (d = 2)
WORK_ARRAYS = {"semigroup": 17, "kato": 10}


def _grid_from_args(args):
    """The command's grid, refused before anything is allocated on it when
    its work arrays would exceed the load budget."""
    grid = Grid(args.d, args.L, args.n)
    nbytes = 8 * (WORK_ARRAYS[args.command] + args.d) * grid.size
    if nbytes > LOAD_BUDGET_BYTES:
        raise BudgetError(
            f"{args.command} on n^d = {grid.size:.3g} nodes needs {nbytes / 1e9:.3g} GB "
            f"of work arrays, over the {LOAD_BUDGET_BYTES / 1e9:.2f} GB budget; shrink n")
    return grid


def cmd_build(args):
    cfg = ScenarioConfig.from_json(args.config)
    sc = Scenario(cfg)
    grid, H = sc.grid, sc.H
    out = args.out or "operator.mpdo"
    save_operator(H, out)
    digest = file_hash(out)
    print(f"wrote {out} ({grid.size}x{grid.size}, defect {H.hermiticity_defect:.3e})")
    print(f"sha256 {digest}")
    if args.report:
        write_atomic(args.report, _strict_json(
            {"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
             "operator_file": out, "operator_sha256": digest,
             "hermiticity_defect": H.hermiticity_defect,
             "real_arithmetic": bool(H.entries.dtype == np.float64)}))
    return 0


def cmd_spectrum(args):
    op = load_operator(args.op)
    if not op.symmetrized:
        op = hermitize(op)
    dec = eig_hermitian(op)
    win = SpectralWindow(args.threshold, args.margin)
    found = discrete_spectrum_select(dec, win)
    out = args.out or "spectrum.csv"
    write_spectrum_csv(dec.eigenvalues, dec.residual, out)
    print(f"{len(found)} discrete eigenvalues below {args.threshold} - {args.margin}")
    for lam, _, gap in found:
        print(f"  lambda = {lam:.10f}  gap = {gap:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_decay(args):
    cfg = ScenarioConfig.from_json(args.config)
    sc = Scenario(cfg)
    grid, found = sc.grid, sc.bound_states
    if not found:
        print("no discrete spectrum below the threshold; nothing to fit")
        return 1
    lam0, u0, gap = found[0]
    u = GridFunction(u0, grid)
    window = tuple(cfg.window) if cfg.window else dk.default_window(grid)
    fits = {}
    for mode in ("exponential", "polynomial"):
        fit = dk.decay_fit(u, mode, window)
        fits[mode] = {"rate": fit.rate, "r_squared": fit.r_squared,
                      "window": fit.window, "samples": fit.sample_count}
        label = "beta-hat" if mode == "exponential" else "p-hat"
        print(f"{mode}: {label} = {fit.rate:.4f}, R2 = {fit.r_squared:.5f}")
    payload = {"eigenvalue": lam0, "gap": gap, "fits": fits,
               "config_hash": cfg.config_hash()}
    if args.out:
        write_atomic(args.out, _strict_json(payload))
        print(f"wrote {args.out}")
    return 0


def cmd_conjugate(args):
    cfg = ScenarioConfig.from_json(args.config)
    if args.eps_list:
        try:
            eps_list = sorted(float(e) for e in args.eps_list.split(","))
        except ValueError as exc:
            raise ConfigError(f"--eps-list needs comma-separated numbers, got "
                              f"{args.eps_list!r}") from exc
    else:
        eps_list = cfg.eps_list
    w = cfg.make_weight()
    rows, eps0 = dk.uniform_bound_sweep(Scenario(cfg).H, w, eps_list)
    out = args.out or "sweep.csv"
    write_sweep_csv(rows, out)
    for eps, rb, erb, flag in rows:
        print(f"eps={eps:<8g} rel_bound={rb:.6f} eps*rel_bound={erb:.6f} ok={flag}")
    print(f"empirical eps0 = {eps0}; wrote {out}")
    return 0


def cmd_semigroup(args):
    grid = _grid_from_args(args)
    res = rel.semigroup_checks(args.t, args.s if args.s else args.t, grid)
    for key, val in res.items():
        print(f"{key}: {val:.6e}")
    if args.out:
        write_atomic(args.out, _strict_json(res))
    return 0


def cmd_kato(args):
    grid = _grid_from_args(args)
    v, meta = potential_from_id(args.potential)
    if not meta.get("nonneg", False):
        print(f"potential {args.potential} is not nonnegative; using |v|")
        W = np.abs(v(grid.nodes))
    else:
        W = v(grid.nodes)
    if args.t_scan:
        rows = rel.kato_scan(W, args.t0, grid, halvings=args.halvings)
    else:
        rows = [(args.t0, rel.kato_estimate(W, args.t0, grid))]
    out = args.out or "kato.csv"
    write_kato_csv(rows, out)
    for t, val in rows:
        print(f"t={t:<12g} sup={val:.8f}")
    print(f"wrote {out}")
    return 0


def cmd_verify(args):
    cfg = ScenarioConfig.from_json(args.config)
    checks = verify_suite(args.suite, cfg)
    n_pass = sum(c.passed for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {args.suite}/{c.name} margin={c.margin:.4g} {c.details}")
    print(f"{n_pass}/{len(checks)} checks passed")
    if args.out:
        report = ScenarioReport(cfg.to_dict(), cfg.config_hash(),
                                {args.suite: [c.__dict__ for c in checks]})
        write_atomic(args.out, report.to_json())
    return 0 if n_pass == len(checks) else 1


def cmd_run(args):
    cfg = ScenarioConfig.from_json(args.config)
    report = run_scenario(cfg, out_path=args.out)
    for suite, checks in report.suites.items():
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            print(f"[{status}] {suite}/{c['name']} {c['details']}")
    print(f"all_passed: {report.all_passed}")
    return 0 if report.all_passed else 1


def cmd_report(args):
    out = merge_reports(args.in_dir, args.out)
    print(f"wrote {out}")
    with open(out) as fh:
        return 0 if json.load(fh)["all_passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magpsido",
        description="Gauge-covariant phase-space operator toolkit: assembly, "
                    "spectra, eigenfunction decay, and semigroup diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="assemble an operator and persist it")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("spectrum", help="eigenvalues of a stored operator")
    p.add_argument("--op", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("decay", help="decay fits for the ground state")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("conjugate", help="weight-conjugation bound sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--eps-list", dest="eps_list")
    p.add_argument("--out")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("semigroup", help="kernel diagnostics on a grid")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float)
    _add_grid_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("kato", help="smeared-potential estimates")
    p.add_argument("--potential", required=True)
    p.add_argument("--t-scan", dest="t_scan", action="store_true")
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--halvings", type=int, default=6)
    _add_grid_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kato)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run all suites from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="merge per-run reports")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except MagpsidoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (`magpsido spectrum ... | head -3`): put
        # devnull under stdout, so the final flush of what is still buffered
        # cannot raise again
        devnull = open(os.devnull, "w")
        try:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # stdout is not a file
            sys.stdout = devnull
        return 2


if __name__ == "__main__":
    sys.exit(main())
