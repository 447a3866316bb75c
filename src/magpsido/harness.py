"""Scenario configuration, verification suites, and report emission.

Each suite check is named after the module invariant it exercises; exit
status of the CLI `verify` command is wired to the `passed` flags here.
"""
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import decay as dk
from . import relativistic as rel
from .errors import ConfigError, FormatError, MagpsidoError, NotApplicableError
from .gauge import (field_from_id, gauge_transform, potential_residual,
                    transversal_gauge, zero_field)
from .mpdo import LOAD_BUDGET_BYTES, atomic_open
from .potentials import potential_from_id
from .quantize import (Grid, GridFunction, WeylFactors, fourier_mode, mag_derivative,
                       op_amplitude, op_ps, op_weyl, sobolev_norm)
from .spectral import (ParityBlocks, SpectralWindow, block_symmetry, discrete_spectrum_select,
                       eig_hermitian, eigvals_hermitian, nearest_gaps, slab_blocks)
from .symbols import (HormanderSymbol, SampleBox, bracket, cauchy_derivative_bound_check,
                      eta_derivative, relativistic_symbol, symbol_from_id)

# complex N x N matrices a run holds at its peak, its eigensolves included:
# peak RSS grew by 9.2 of them for quantize-core on a 2-D grid at N = 1024,
# 4.8 for lemmas-weights at N = 1024, 2.0 for a run with no suites
RUN_WORDS = 10
SUITE_NAMES = ("quantize-core", "lemmas-weights", "thm1-rapid-decay",
               "thm2-exp-decay", "thm3-relativistic")

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "symbol": {"type": "string"},
        "field": {"type": "string"},
        "grid": {
            "type": "object",
            "properties": {
                "d": {"type": "integer", "enum": [1, 2]},
                "L": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 4},
            },
            "required": ["d", "L", "n"],
            "additionalProperties": False,
        },
        "weight": {
            "type": "object",
            "properties": {
                "kind": {"type": "string", "enum": ["polynomial", "exponential"]},
                "p": {"type": "integer", "minimum": 1},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "eps_list": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "window": {"type": ["array", "null"], "items": {"type": "number"},
                   "minItems": 2, "maxItems": 2},
        "suites": {"type": "array", "items": {"type": "string", "enum": list(SUITE_NAMES)}},
        "gauge_chi": {"type": ["string", "null"], "enum": ["bilinear", "quadratic", None]},
        "essential_threshold": {"type": "number"},
        "margin": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["symbol", "grid"],
    "additionalProperties": False,
}
_SCHEMA_KEYWORDS = frozenset({"type", "enum", "minimum", "exclusiveMinimum", "required",
                              "properties", "additionalProperties", "items", "minItems",
                              "maxItems"})
_JSON_TYPES = {"object": dict, "array": list, "string": str, "null": type(None)}


def _is_type(value, name):
    """JSON Schema's type rules: a bool is no number, and 1.0 is an integer."""
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, _JSON_TYPES[name])


def _schema_errors(schema, value, path=()):
    """Yield (instance path, message) for each violation of `schema`, with
    jsonschema's messages and in its order: keywords as the schema lists them.
    Covers the keywords in _SCHEMA_KEYWORDS, `additionalProperties` as a
    boolean only; any other keyword raises."""
    for keyword, arg in schema.items():
        if keyword not in _SCHEMA_KEYWORDS:
            raise ValueError(f"schema keyword {keyword!r} is not implemented")
        if keyword == "type":
            types = arg if isinstance(arg, list) else [arg]
            if not any(_is_type(value, t) for t in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "enum":
            if not any(value == e and isinstance(value, bool) == isinstance(e, bool)
                       for e in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword == "minimum":
            if _is_type(value, "number") and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "exclusiveMinimum":
            if _is_type(value, "number") and value <= arg:
                yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif isinstance(value, dict) and keyword == "required":
            for key in arg:
                if key not in value:
                    yield path, f"{key!r} is a required property"
        elif isinstance(value, dict) and keyword == "properties":
            for key, sub in arg.items():
                if key in value:
                    yield from _schema_errors(sub, value[key], path + (key,))
        elif isinstance(value, dict) and keyword == "additionalProperties" and not arg:
            extras = sorted(set(value) - set(schema.get("properties", {})), key=str)
            if extras:
                yield path, ("Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} "
                             f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif isinstance(value, list) and keyword == "items":
            for index, item in enumerate(value):
                yield from _schema_errors(arg, item, path + (index,))
        elif isinstance(value, list) and keyword == "minItems" and len(value) < arg:
            yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif isinstance(value, list) and keyword == "maxItems" and len(value) > arg:
            yield path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"


def _integers_as_int(schema, value):
    """`value` with each entry the schema types "integer" made an int: the
    schema admits 1.0 there, and the code downstream needs an int."""
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _integers_as_int(props.get(k, {}), v) for k, v in value.items()}
    return value


@dataclass
class ScenarioConfig:
    symbol: str
    grid: dict
    field: str = "zero"
    weight: dict = dc_field(default_factory=lambda: {"kind": "exponential", "p": 1})
    eps_list: list = dc_field(default_factory=lambda: [0.0125, 0.025, 0.05, 0.1])
    window: Optional[list] = None
    suites: list = dc_field(default_factory=list)
    gauge_chi: Optional[str] = None
    essential_threshold: float = 1.0
    margin: float = 0.05
    seed: int = 1234

    @classmethod
    def from_dict(cls, raw):
        """Build from a parsed config; field defaults fill absent keys and
        the completed config is validated."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        try:
            cfg = cls(**raw)
        except TypeError as exc:  # unknown or missing keys
            raise ConfigError(f"config keys: {exc}") from exc
        return cls(**validate_config(cfg.to_dict()))

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
        except ValueError as exc:  # malformed JSON or text encoding
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self):
        return asdict(self)

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def make_grid(self):
        return Grid(self.grid["d"], float(self.grid["L"]), int(self.grid["n"]))

    def make_weight(self):
        return dk.WeightFamily(self.weight["kind"], int(self.weight.get("p", 1)))


def validate_config(raw):
    """Schema validation plus the numeric lints the schema cannot express.

    Returns the config with its integer entries as ints. Of several schema
    violations the message names the one jsonschema's `best_match` picks:
    the shallowest, then among siblings the one with the greatest path, then
    the first found.
    """
    errors = list(_schema_errors(CONFIG_SCHEMA, raw))
    if errors:
        _, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        raise ConfigError(f"config schema violation: {message}")
    raw = _integers_as_int(CONFIG_SCHEMA, raw)
    g = raw["grid"]
    if g["n"] % 2:
        raise ConfigError("grid n must be even")
    lint_config(raw)
    return raw


def _momentum_scale(raw):
    """Decay-relevant momentum scale: sqrt(well depth), at least 1."""
    pid = raw["symbol"].partition("+")[2]
    depth = potential_from_id(pid)[1].get("depth", 0.0) if pid else 0.0
    return max(1.0, math.sqrt(abs(depth)))


def lint_config(raw):
    g = raw["grid"]
    if not math.isfinite(g["L"]):
        raise ConfigError("grid L must be finite")
    # json reads NaN and Infinity, and the schema's number type admits them
    for key in ("essential_threshold", "margin"):
        if key in raw and not math.isfinite(raw[key]):
            raise ConfigError(f"{key} must be finite")
    if raw.get("window") and not all(math.isfinite(r) for r in raw["window"]):
        raise ConfigError("window bounds must be finite")
    symbol_from_id(raw["symbol"], g["d"])
    field_from_id(raw.get("field", "zero"), g["d"])
    eps_list = sorted(raw.get("eps_list", []))
    if raw.get("eps_list") and list(raw["eps_list"]) != eps_list:
        raise ConfigError("eps_list must be sorted ascending")
    for eps in eps_list:
        if not 0.0 < eps <= 1.0:
            raise ConfigError("eps values must lie in (0, 1]")
        weight = raw.get("weight", {})
        br = math.hypot(1.0, eps * g["L"])
        if weight.get("kind", "exponential") == "exponential":
            if br - 1.0 > 690.0:
                raise ConfigError(f"eps={eps} overflows the exponential weight")
        elif weight.get("p", 1) * math.log(br) > 690.0:
            raise ConfigError(f"eps={eps} overflows the polynomial weight")
    # a run holds RUN_WORDS complex128 N x N matrices; Python integers keep
    # their size exact however large n is
    N = g["n"] ** g["d"]
    if 16 * RUN_WORDS * N**2 > LOAD_BUDGET_BYTES:
        raise ConfigError(
            f"grid n too large: a run on the N x N operator (N = n^d = {N}) holds "
            f"{RUN_WORDS} complex N x N matrices, over the "
            f"{LOAD_BUDGET_BYTES / 1e9:.2f} GB budget; shrink n")
    nyquist = math.pi * g["n"] / (2.0 * g["L"])
    scale = _momentum_scale(raw)
    decay_suites = {"thm1-rapid-decay", "thm2-exp-decay"} & set(raw.get("suites", []))
    factor = 8.0 if decay_suites else 2.0
    if nyquist < factor * scale:
        raise ConfigError(
            f"frequency headroom lint: Nyquist {nyquist:.2f} < "
            f"{factor} x momentum scale {scale:.2f}; enlarge n or shrink L")


@dataclass
class Check:
    name: str
    invariant: str
    passed: bool
    margin: float
    details: str = ""

    def __post_init__(self):
        # numpy comparisons yield np.bool_/np.float64, which json cannot encode
        self.passed = bool(self.passed)
        self.margin = float(self.margin)


class Scenario:
    """The objects one config defines, each built on first use and then kept:
    grid, symbol, (possibly gauge-shifted) gauge, H's factors, the operator
    H, its eigenvalues and its Hermitian eigendecomposition. A run shares one
    Scenario across its suites and its spectra summary, so H is assembled
    once and decomposed at most once: eigenvectors are computed only when a
    suite reads them, and a run that reads none solves for eigenvalues only.
    """

    def __init__(self, cfg):
        self.cfg = cfg

    @cached_property
    def grid(self):
        return self.cfg.make_grid()

    @cached_property
    def symbol(self):
        return symbol_from_id(self.cfg.symbol, self.grid.dimension)

    @cached_property
    def gauge(self):
        """The config's field in the transversal gauge about the lattice
        centre, so that a field on axis 0 gives an H with the conjugate
        reflection symmetry; then the config's shift, if any."""
        d = self.grid.dimension
        gauge = transversal_gauge(field_from_id(self.cfg.field, d), origin=self.grid.centre)
        if self.cfg.gauge_chi:
            gauge = gauge_transform(gauge, *_named_chi(self.cfg.gauge_chi, d))
        return gauge

    @cached_property
    def factors(self):
        """H's `WeylFactors`, computed once for H and for its slabs."""
        return WeylFactors(self.symbol, self.gauge, self.grid)

    @cached_property
    def H(self):
        return self.factors.operator()

    @cached_property
    def symmetry(self):
        """The symmetry blocks of H, tested once for every solve."""
        return block_symmetry(self.H)

    @cached_property
    def dec(self):
        return eig_hermitian(self.H, self.symmetry)

    @cached_property
    def eigenvalues(self):
        """Ascending eigenvalues of H: those of `dec` when it is already
        computed, else from an eigenvalue-only solve: of the real block that
        `slab_blocks` folds from the slabs of a complex H not yet formed, so H
        never is, and else of H."""
        dec = self.__dict__.get("dec")
        if dec is not None:
            return dec.eigenvalues
        folded = "H" not in self.__dict__ and slab_blocks(self.grid, self.factors.slabs())
        if not folded:
            return eigvals_hermitian(self.H, self.symmetry)
        self.symmetry, K = folded
        return eigvals_hermitian(K)  # a bare array: one block

    @property
    def residual(self):
        """Eigen-residual of `dec`; None when no eigenvectors were computed."""
        dec = self.__dict__.get("dec")
        return None if dec is None else dec.residual

    @cached_property
    def window(self):
        return SpectralWindow(self.cfg.essential_threshold, self.cfg.margin)

    @cached_property
    def bound_states(self):
        """Eigenpairs below essential_threshold - margin, each with its gap."""
        return discrete_spectrum_select(self.dec, self.window)

    def rng(self):
        """A fresh generator seeded from the config: a suite draws the same
        numbers whether it runs alone or after other suites."""
        return np.random.default_rng(self.cfg.seed)


def scenario_context(cfg):
    """Grid, symbol, and (possibly gauge-shifted) gauge for a config."""
    sc = Scenario(cfg)
    return sc.grid, sc.symbol, sc.gauge


def _named_chi(name, d):
    """Gauge-shift functions selectable from configs (potential override)."""
    if name == "quadratic":
        return (lambda X: 0.5 * (np.asarray(X) ** 2).sum(-1),
                lambda X: np.asarray(X, dtype=float).copy())
    if name == "bilinear":
        if d == 1:
            return (lambda X: 0.5 * np.asarray(X)[..., 0] ** 2,
                    lambda X: np.asarray(X, dtype=float).copy())
        return (lambda X: np.asarray(X)[..., 0] * np.asarray(X)[..., 1],
                lambda X: np.stack([np.asarray(X)[..., 1], np.asarray(X)[..., 0]],
                                   axis=-1))
    raise ConfigError(f"unknown gauge_chi {name!r}")


def _small_grid(grid, cap_1d=64, cap_2d=12):
    cap = cap_1d if grid.dimension == 1 else cap_2d
    n = min(grid.n, cap)
    return Grid(grid.dimension, grid.L, n)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_quantize_core(sc):
    cfg, grid, sym, gauge = sc.cfg, sc.grid, sc.symbol, sc.gauge
    d = grid.dimension
    checks = []

    one = symbol_from_id("p_s:s=0", d)
    ident = op_weyl(one, gauge, grid).entries
    dev = float(np.abs(ident - np.eye(grid.size)).max())
    checks.append(Check("identity-reproduction", "quantize/identity", dev < 1e-12,
                        1e-12 - dev, f"max deviation {dev:.3e}"))

    def vfun(x):
        return -np.exp(-(np.asarray(x) ** 2).sum(-1) / 2.0)

    pure_mult = HormanderSymbol(order=0.0, f=lambda eta: np.zeros(np.shape(eta)[:-1]),
                                dimension=d, v=vfun, symbol_id="mult:v")
    Hm = op_weyl(pure_mult, gauge, grid).entries
    diag_dev = float(np.abs(Hm - np.diag(vfun(grid.nodes))).max())
    checks.append(Check("multiplication-exactness", "quantize/multiplication",
                        diag_dev < 1e-12, 1e-12 - diag_dev,
                        f"max deviation {diag_dev:.3e}"))

    g0 = transversal_gauge(zero_field(d))
    kin = symbol_from_id("kinetic", d)
    gl = _small_grid(grid)
    Hk = op_weyl(kin, g0, gl).entries
    eta = gl.eta_nodes
    ref = _fft_multiplier_reference((eta**2).sum(-1), gl)
    lap_err = float(np.linalg.norm(Hk - ref) / np.linalg.norm(ref))
    checks.append(Check("fft-laplacian", "quantize/fft-oracle", lap_err < 1e-10,
                        1e-10 - lap_err, f"relative frobenius {lap_err:.3e}"))

    P1 = op_ps(1.0, g0, gl).entries
    Pm1 = op_ps(-1.0, g0, gl).entries
    inv_err = float(np.abs(P1 @ Pm1 - np.eye(gl.size)).max())
    checks.append(Check("ps-inverse", "quantize/ps-pair", inv_err < 1e-10,
                        1e-10 - inv_err, f"|P1 P-1 - I| {inv_err:.3e}"))

    H = sc.H
    defect = H.hermiticity_defect
    checks.append(Check("hermiticity-defect", "quantize/defect", defect < 1e-8,
                        1e-8 - defect, f"defect {defect:.3e}"))

    chi, grad_chi = _named_chi("bilinear", d)
    gauge2 = gauge_transform(gauge, chi, grad_chi)
    H2 = op_weyl(sym, gauge2, grid)
    dec = sc.dec
    lam2 = eigvals_hermitian(H2)
    scale = max(float(np.abs(dec.eigenvalues).max()), 1e-12)
    spec_diff = float(np.abs(dec.eigenvalues - lam2).max() / scale)
    phase = np.exp(1j * chi(grid.nodes))
    W = phase[:, None] * dec.eigenvectors
    vec_res = float(np.linalg.norm(H2.entries @ W - W * dec.eigenvalues[None, :],
                                   axis=0).max() / scale)
    checks.append(Check("gauge-covariance-spectrum", "quantize/gauge-covariance",
                        spec_diff < 1e-8, 1e-8 - spec_diff,
                        f"relative spectrum diff {spec_diff:.3e}"))
    checks.append(Check("gauge-covariance-vectors", "quantize/gauge-covariance",
                        vec_res < 1e-6, 1e-6 - vec_res,
                        f"phase-aligned residual {vec_res:.3e}"))

    ga = _small_grid(grid, cap_1d=48, cap_2d=10)

    def mid_amp(x, y, e):
        return sym.eval(0.5 * (np.asarray(x, dtype=float) + np.asarray(y, dtype=float)), e)

    Ha = op_amplitude(mid_amp, gauge, ga).entries
    Hw = op_weyl(sym, gauge, ga).entries
    amp_dev = float(np.abs(Ha - Hw).max() / max(np.abs(Hw).max(), 1e-300))
    checks.append(Check("amplitude-midpoint-coincidence", "quantize/amplitude",
                        amp_dev < 1e-12, 1e-12 - amp_dev,
                        f"max deviation {amp_dev:.3e}"))

    if d == 1:
        # <eta> on the grid and on its half: relativistic is p_s:s=1, so one
        # matrix per grid serves as both H and P_1
        P1s = [op_ps(1.0, gauge, g) for g in (Grid(d, grid.L, grid.n // 2), grid)]
        checks.append(_graph_norm_check(cfg, P1s, gauge))
        checks.append(_sobolev_char_check(cfg, P1s, gauge))

    res = potential_residual(gauge, radius=min(4.0, grid.L / 2), density=16)
    checks.append(Check("potential-consistency", "gauge/dA-equals-B", res < 1e-6,
                        1e-6 - res, f"dA-B residual {res:.3e}"))
    return checks


def _fft_multiplier_reference(mult_flat, grid):
    """F^* diag(mult) F for the grid's DFT (oracle for x-free symbols)."""
    nodes = grid.nodes
    eta = grid.eta_nodes
    F = np.exp(-1j * (eta[:, None, :] * nodes[None, :, :]).sum(-1))
    return (F.conj().T * mult_flat[None, :]) @ F / grid.size


# largest relative drift of a norm-equivalence spread between grid n/2 and n
_DRIFT_TOL = 0.2


def _test_functions(g, seed):
    """Four Fourier modes, then four complex Gaussian vectors drawn from `seed`."""
    rng = np.random.default_rng(seed)
    return ([fourier_mode(g, (k,)) for k in (0, 1, 3, 7)]
            + [GridFunction(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size), g)
               for _ in range(4)])


def _graph_norm_check(cfg, P1s, gauge):
    ratios = []
    for P1 in P1s:
        vals = [sobolev_norm(u, 1.0, gauge, ps_operator=P1)
                / (u.l2_norm() + P1.apply(u).l2_norm())
                for u in _test_functions(P1.grid, cfg.seed)]
        ratios.append((min(vals), max(vals)))
    spread = [hi / lo for lo, hi in ratios]
    drift = abs(spread[1] - spread[0]) / spread[0]
    return Check("graph-norm-equivalence", "quantize/graph-norm", drift < _DRIFT_TOL,
                 _DRIFT_TOL - drift,
                 f"interval {ratios[1][0]:.4f}..{ratios[1][1]:.4f}, drift {drift:.3f}")


def _sobolev_char_check(cfg, P1s, gauge):
    spreads = []
    for P1 in P1s:
        vals = [sobolev_norm(u, 1.0, gauge, ps_operator=P1) ** 2
                / (u.l2_norm() ** 2 + mag_derivative((1,), u, gauge).l2_norm() ** 2)
                for u in _test_functions(P1.grid, cfg.seed + 1)]
        spreads.append(max(vals) / min(vals))
    drift = abs(spreads[1] - spreads[0]) / spreads[0]
    return Check("sobolev-characterization", "quantize/sobolev-eq", drift < _DRIFT_TOL,
                 _DRIFT_TOL - drift, f"spread {spreads[1]:.4f}, drift {drift:.3f}")


def suite_lemmas_weights(sc):
    cfg, grid, sym, gauge, rng = sc.cfg, sc.grid, sc.symbol, sc.gauge, sc.rng()
    d = grid.dimension
    checks = []

    box = SampleBox(4.0, 8.0)
    cres = cauchy_derivative_bound_check(sym, 4, box, grid_density=16)
    checks.append(Check("cauchy-derivative-bound", "symbols/factorial-growth",
                        cres.passed, 1.0 - cres.worst_ratio,
                        f"worst ratio {cres.worst_ratio:.4f}"))

    pairs = (rng.uniform(-5, 5, size=(10000, d)), rng.uniform(-5, 5, size=(10000, d)))
    worst_b = 0.0
    for eps in cfg.eps_list + [1.0]:
        worst_b = max(worst_b, float(np.linalg.norm(
            dk.b_shift(eps, pairs[0], pairs[1]), axis=-1).max()))
    checks.append(Check("shift-field-bound", "decay/b-bound", worst_b <= 1.0,
                        1.0 - worst_b, f"max |b| {worst_b:.6f}"))

    w_exp = dk.WeightFamily("exponential")
    res_exp = max(dk.weight_taylor_identity_check(w_exp, eps, pairs)
                  for eps in cfg.eps_list + [0.3, 1.0])
    checks.append(Check("exp-weight-identity", "decay/ratio-identity",
                        res_exp < 1e-12, 1e-12 - res_exp, f"residual {res_exp:.3e}"))

    res_poly = max(
        dk.weight_taylor_identity_check(dk.WeightFamily("polynomial", p=2), 1.0, pairs),
        dk.weight_taylor_identity_check(dk.WeightFamily("polynomial", p=4), 1.0, pairs),
        dk.weight_taylor_identity_check(dk.WeightFamily("polynomial", p=3), 0.2, pairs),
    )
    checks.append(Check("poly-weight-identity", "decay/taylor-identity",
                        res_poly < 1e-10, 1e-10 - res_poly, f"residual {res_poly:.3e}"))

    cap = dk.analytic_eps_cap(sym)
    eps = min(0.05, cap) if cap else 0.05
    H = sc.H.entries
    f = dk.WeightFamily("exponential")(eps, grid.nodes)
    lhs = (f[:, None] / f[None, :]) * H
    Ec = op_amplitude(dk.amplitude_c_eps(sym, eps), gauge, grid).entries
    scale = np.linalg.norm(H)
    ratio = float(np.linalg.norm(lhs - Ec) / scale)
    checks.append(Check("conjugation-amplitude-match", "decay/shift-conjugation",
                        ratio < 1e-3, 1e-3 - ratio, f"eps={eps}, ratio {ratio:.3e}"))

    checks.append(_remainder_order_check(sym, cfg.eps_list, pairs, box.eta_radius))
    return checks


# slack of remainder-symbol-order: <eta>^{1-m} |grad_eta a| still grows by a few
# per mille between the fitted eta radius and twice it, and the shift moves eta
# off the real axis
_ORDER_SLACK = 1.05


def _eta_lattice(radius, d):
    axis = np.linspace(-radius, radius, 16)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def _remainder_order_check(sym, eps_list, pairs, radius):
    """The remainder amplitude (c_eps - a)/eps is of order m - 1 uniformly in eps.

    On the first 64 sample pairs and eta lattices of radius R and 2R, each
    ratio |c_eps - a| / (eps <eta>^{m-1}) is divided by sup|b_eps| times
    C1 = sup <eta>^{1-m} |grad_eta a| over radius R. A declared order below
    the true one shows as growth by 2^(true - declared) on radius 2R.
    """
    d = sym.dimension
    xs, ys = (p[:64, None, :] for p in pairs)
    mids = 0.5 * (xs + ys)
    inner = _eta_lattice(radius, d)
    weight = bracket(inner) ** (1.0 - sym.order)
    C1 = float((np.linalg.norm([eta_derivative(sym, e, mids, inner)
                                for e in np.eye(d, dtype=int)], axis=0) * weight).max())
    cap = dk.analytic_eps_cap(sym)
    eps_values = sorted({eps for eps in eps_list if eps <= cap} | {cap})
    worst = 0.0
    for eps in eps_values:
        B = float(np.linalg.norm(dk.b_shift(eps, xs, ys), axis=-1).max())
        c_eps = dk.amplitude_c_eps(sym, eps)
        for E in (inner, _eta_lattice(2.0 * radius, d)):
            q = (np.abs(c_eps(xs, ys, E) - sym.eval(mids, E))
                 / (eps * bracket(E) ** (sym.order - 1.0)))
            worst = max(worst, float(q.max()) / (B * C1))
    return Check("remainder-symbol-order", "decay/remainder-order", worst <= _ORDER_SLACK,
                 _ORDER_SLACK - worst,
                 f"worst ratio {worst:.4f} over eps {eps_values[0]:g}..{cap:g}")


def _window_check(found):
    return Check("discrete-spectrum-nonempty", "spectral/window",
                 len(found) > 0, float(len(found)),
                 f"{len(found)} eigenvalues below threshold")


def suite_thm1_rapid_decay(sc):
    cfg, grid, found = sc.cfg, sc.grid, sc.bound_states
    checks = [_window_check(found)]
    if not found:
        return checks
    u0 = found[0][1]
    u = GridFunction(u0, grid)
    window = tuple(cfg.window) if cfg.window else dk.default_window(grid)
    fit = dk.decay_fit(u, "polynomial", window)
    checks.append(Check("rapid-decay-order", "decay/polynomial-rate",
                        fit.rate >= 6.0 and fit.r_squared > 0.9, fit.rate - 6.0,
                        f"p-hat {fit.rate:.2f}, R2 {fit.r_squared:.4f}"))

    checks.append(_transport_check(sc, cfg.make_weight(), cfg.eps_list))
    return checks


def _transport_check(sc, w, eps_list):
    """F H F^{-1} keeps every bound pair (lam, u) as (lam, F u): the residual
    |H_eps F u - lam F u| / |F u| of each bound state at each eps, relative to
    max(|lam|_max, 1)."""
    lam = np.array([lv for lv, _, _ in sc.bound_states])
    U = np.stack([u for _, u, _ in sc.bound_states], axis=1)
    residuals = []
    for eps in eps_list:
        V = w(eps, sc.grid.nodes)[:, None] * U
        R = dk.conjugate_operator(sc.H, w, eps).entries @ V - V * lam[None, :]
        residuals.append(np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0))
    # np.max propagates a NaN residual, so a non-finite weight fails the check
    worst = float(np.max(residuals, initial=0.0))
    worst /= max(float(np.abs(sc.dec.eigenvalues).max()), 1.0)
    return Check("weighted-eigenvector", "decay/eigenvector-transport",
                 worst < 1e-8, 1e-8 - worst,
                 f"worst relative residual {worst:.3e} over {len(lam)} bound states "
                 f"x {len(eps_list)} eps")


def suite_thm2_exp_decay(sc):
    cfg, grid, found = sc.cfg, sc.grid, sc.bound_states
    checks = [_window_check(found)]
    if not found:
        return checks
    u0 = found[0][1]
    u = GridFunction(u0, grid)
    window = tuple(cfg.window) if cfg.window else dk.default_window(grid)
    fit = dk.decay_fit(u, "exponential", window)
    checks.append(Check("exponential-decay-fit", "decay/exponential-rate",
                        fit.rate > 0 and fit.r_squared > 0.98,
                        min(fit.rate, fit.r_squared - 0.98),
                        f"beta-hat {fit.rate:.4f}, R2 {fit.r_squared:.5f}"))

    w = cfg.make_weight()
    # through the module attribute, which callers may wrap
    rows, eps0 = dk.uniform_bound_sweep(sc.H, w, sorted(cfg.eps_list), dec=sc.dec)
    bounds = [r[1] for r in rows]
    variation = max(bounds) / max(min(bounds), 1e-300)
    checks.append(Check("uniform-relative-bound", "decay/uniform-sweep",
                        variation < 3.0, 3.0 - variation,
                        f"variation {variation:.2f}x over {cfg.eps_list}"))

    est = dk.epsilon0_estimate(sc.symbol, w, eps0)
    ok = est["empirical_eps0"] is not None
    checks.append(Check("epsilon0-estimates", "decay/eps0",
                        ok, float(est["empirical_eps0"] or 0.0),
                        f"analytic {est['analytic_eps0']}, empirical {est['empirical_eps0']}"))

    certificate_eps = fit.rate / 2.0
    fw = np.exp(certificate_eps * bracket(grid.nodes))
    weighted = fw * np.abs(u0)
    radii = np.sqrt((grid.nodes**2).sum(-1))
    inside = radii <= 0.8 * grid.L
    argmax_r = float(radii[inside][np.argmax(weighted[inside])])
    checks.append(Check("weighted-sup-certificate", "decay/weighted-sup",
                        argmax_r < 0.5 * grid.L, 0.5 * grid.L - argmax_r,
                        f"weighted profile peaks at |x| = {argmax_r:.2f}"))

    checks.append(_transport_check(sc, w, cfg.eps_list))
    return checks


def _thm3_contract(sc):
    """thm3 takes the scenario's operator as the comparison operator of its
    pointwise chain, which needs d = 1, a relativistic symbol, v <= 0 and
    the unshifted gauge; NotApplicableError names the first condition missed."""
    if sc.grid.dimension != 1:
        raise NotApplicableError(f"thm3 needs d = 1, got d = {sc.grid.dimension}")
    base, _, pid = sc.cfg.symbol.strip().partition("+")
    if base != "relativistic":
        raise NotApplicableError(f"thm3 needs the symbol relativistic or "
                                 f"relativistic+<potential>, got {sc.cfg.symbol!r}")
    if pid and (potential_from_id(pid)[0](sc.grid.nodes) > 0).any():
        raise NotApplicableError(f"thm3 needs v <= 0 on the grid nodes; {pid} is "
                                 f"positive at some node")
    if sc.cfg.gauge_chi:
        raise NotApplicableError(f"thm3 needs gauge_chi unset; {sc.cfg.gauge_chi!r} "
                                 f"rotates the kernel by e^(i chi)")


def suite_thm3_relativistic(sc):
    _thm3_contract(sc)
    grid = sc.grid
    below = len(sc.bound_states)
    checks = [Check("form-sum-bound-state", "relativistic/form-sum",
                    below >= 1, float(below), f"{below} eigenvalues below threshold")]
    if below:
        # zero field and v <= 0: the scenario operator is the chain's
        # comparison operator H(0, -V_minus)
        rep = rel.pointwise_bound_check(sc.dec, eps=0.1, p=2.0, grid=grid)
        ok = rep["kernel_margin"] > 0 and rep["chain_margin"] > 0
        checks.append(Check("pointwise-bound-chain", "relativistic/decay-chain",
                            ok, rep["chain_margin"],
                            f"C_hat {rep['C_hat']:.3f}, chain margin "
                            f"{rep['chain_margin']:.3f}, kernel min {rep['kernel_min']:.2e}"))

    growth = replace(relativistic_symbol(1), v=lambda x: bracket(x) - 1.0,
                     symbol_id="relativistic+linear-growth")
    Hp = op_weyl(growth, transversal_gauge(zero_field(1)), grid)
    lam_min = float(eigvals_hermitian(Hp)[0])
    base_min = 1.0
    checks.append(Check("weyl-lower-bound", "relativistic/weyl-shift",
                        lam_min >= base_min - 1e-8, lam_min - base_min + 1e-8,
                        f"lambda_min {lam_min:.6f} >= {base_min}"))
    return checks


_SUITES = {
    "quantize-core": suite_quantize_core,
    "lemmas-weights": suite_lemmas_weights,
    "thm1-rapid-decay": suite_thm1_rapid_decay,
    "thm2-exp-decay": suite_thm2_exp_decay,
    "thm3-relativistic": suite_thm3_relativistic,
}


def verify_suite(name, cfg):
    """Run one named suite on a ScenarioConfig, or on a Scenario shared with
    other suites; returns its check list."""
    if name not in _SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](cfg if isinstance(cfg, Scenario) else Scenario(cfg))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ScenarioReport:
    config: dict
    config_hash: str
    suites: dict                 # name -> list of check dicts
    spectra_summary: Optional[dict] = None
    timings: dict = dc_field(default_factory=dict)
    incomplete: bool = False

    @property
    def all_passed(self):
        return all(c["passed"] for checks in self.suites.values() for c in checks)

    def to_dict(self):
        out = asdict(self)
        out["all_passed"] = self.all_passed
        return out

    def to_json(self):
        return _strict_json(self.to_dict())


def _finite_or_null(obj):
    """A copy of a JSON-ready value with every non-finite float set to None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _strict_json(obj):
    """Report text that strict JSON parsers accept: a non-finite float (a NaN
    margin, say) is written as null, never as a bare NaN or Infinity."""
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=2, allow_nan=False)


def _spectra_summary(sc):
    lam = sc.eigenvalues
    sym = sc.symmetry
    below = sc.window.below(lam)
    return {
        "lowest": [float(v) for v in lam[:8]],
        "residual": sc.residual,
        "discrete_count": len(below),
        "bound_state_gaps": [float(gap) for gap in nearest_gaps(lam)[below]],
        "hermiticity_defect": sc.factors.defect,
        "real_arithmetic": sc.factors.real,
        "parity_blocks": sym.sizes if isinstance(sym, ParityBlocks) else None,
        "symmetry": sym.name,
    }


def run_scenario(cfg, out_path=None):
    """Execute the configured suites; deterministic given config + seed."""
    sc = Scenario(cfg)
    suites = {}
    timings = {}
    incomplete = False
    for name in cfg.suites:
        t0 = time.perf_counter()
        try:
            checks = verify_suite(name, sc)
        except MagpsidoError as exc:
            checks = [Check("suite-error", f"{name}/error", False, -1.0, str(exc))]
            incomplete = True
        timings[name] = time.perf_counter() - t0
        suites[name] = [asdict(c) for c in checks]
    t0 = time.perf_counter()
    spectra = _spectra_summary(sc)
    timings["spectra"] = time.perf_counter() - t0
    report = ScenarioReport(cfg.to_dict(), cfg.config_hash(), suites,
                            spectra_summary=spectra, timings=timings,
                            incomplete=incomplete)
    if out_path:
        write_atomic(out_path, report.to_json())
    return report


def write_atomic(path, text):
    """Write text through a temporary file and a rename; see mpdo.atomic_open."""
    with atomic_open(path) as fh:
        fh.write(text)
    return path


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return write_atomic(path, buf.getvalue())


def write_sweep_csv(rows, path):
    return _write_csv(path, ("epsilon", "rel_bound", "eps_rel_bound", "flag"),
                      ((eps, f"{rb:.12g}", f"{erb:.12g}", flag)
                       for eps, rb, erb, flag in rows))


def write_spectrum_csv(eigenvalues, path):
    """One row per eigenvalue; `gap` is the distance to the nearest other one."""
    lam = np.asarray(eigenvalues, dtype=float)
    rows = [(i, f"{v:.12g}", f"{gap:.12g}")
            for i, (v, gap) in enumerate(zip(lam, nearest_gaps(lam)))]
    return _write_csv(path, ("index", "eigenvalue", "gap"), rows)


def write_kato_csv(rows, path):
    return _write_csv(path, ("t", "sup_value"),
                      ((f"{t:.12g}", f"{v:.12g}") for t, v in rows))


def merge_reports(in_dir, out_path):
    """Combine per-run JSON reports from a directory into one file."""
    merged = {"reports": []}
    try:
        names = sorted(os.listdir(in_dir))
    except OSError as exc:
        raise ConfigError(f"cannot list report directory {in_dir}: {exc.strerror}") from exc
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(in_dir, name)
        try:
            with open(path) as fh:
                report = json.load(fh)
        except OSError as exc:
            raise FormatError(f"cannot read report {path}: {exc.strerror}") from exc
        except ValueError as exc:
            raise FormatError(f"report {path} is not valid JSON: {exc}") from exc
        if not isinstance(report, dict):
            raise FormatError(f"report {path} is not a JSON object")
        merged["reports"].append(report)
    merged["all_passed"] = all(r.get("all_passed", False) for r in merged["reports"])
    write_atomic(out_path, _strict_json(merged))
    return out_path
