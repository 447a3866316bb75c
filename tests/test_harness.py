import collections
import copy
import csv
import dataclasses
import json
import os

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import magpsido.decay as dk
from magpsido.cli import main as cli_main
from magpsido.errors import ConfigError, FormatError, NotApplicableError
from magpsido.quantize import OperatorMatrix
from magpsido.harness import (_SCHEMA_KEYWORDS, CONFIG_SCHEMA, SUITE_NAMES, Scenario,
                              ScenarioConfig, _schema_errors, merge_reports, run_scenario,
                              validate_config, verify_suite, write_atomic, write_kato_csv,
                              write_spectrum_csv, write_sweep_csv)
from magpsido.symbols import bracket

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")

BASE_CFG = {
    "symbol": "relativistic+gauss_well:depth=2,width=1",
    "field": "zero",
    "grid": {"d": 1, "L": 18.0, "n": 96},
    "weight": {"kind": "exponential", "p": 1},
    "eps_list": [0.025, 0.05, 0.1],
    "suites": [],
    "seed": 7,
}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)
CONFIG_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)]
ID_STRINGS = st.sampled_from([
    "relativistic", "kinetic", "p_s:s=1", "neg_order", "relativistic+gauss_well",
    "kinetic+gauss_well:depth=2,width=1", "relativistic+gauss_well:depth=x",
    "relativistic+gauss_well:depth=1e999", "kinetic+gauss_well:wat=1",
    "kinetic+coulomb_like:alpha=1", "kinetic+bounded_bump:height=-3",
    "gauss_well:depth=3", "gauss_well:depth=", "bounded_bump", "nope:depth=2", "+", ""])


@st.composite
def fuzzed_config(draw):
    """A valid config with some keys replaced, added or dropped."""
    raw = copy.deepcopy(BASE_CFG)
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS + ["frobnicate", 3]), max_size=4)):
        if key == "symbol" and draw(st.booleans()):
            raw[key] = draw(ID_STRINGS)
        else:
            raw[key] = draw(JSON_VALUES)
    for sub, names in (("grid", ["d", "L", "n", "h"]), ("weight", ["kind", "p", "q"])):
        if isinstance(raw.get(sub), dict) and draw(st.booleans()):
            raw[sub][draw(st.sampled_from(names))] = draw(JSON_VALUES)
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=2)):
        raw.pop(key, None)
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    return raw


# the schema's own values, bools, integral floats and near misses, nested
# two deep: enough for every wrong shape the schema can meet
SCHEMA_SCALARS = (st.none() | st.booleans() | st.integers(-3, 130)
                  | st.integers(-3, 130).map(float) | st.floats()
                  | st.sampled_from(["polynomial", "exponential", "bilinear", "quadratic",
                                     "relativistic", "zero", *SUITE_NAMES, ""]))


def _nested(inner):
    return (inner | st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["d", "L", "n", "kind", "p", "x"]), inner,
                              max_size=3))


# boundary values of the schema's minimum, exclusiveMinimum, enum and item counts
NEAR_MISSES = st.sampled_from([-1, 0, 0.0, -0.0, 1, True, 1.0, 2.0, 3, 4, 3.0, 64.0, 2.5,
                               [], [0.5], [0.1, 0.2], [0.1, 0.2, 0.3], [True], ["x"]])
SCHEMA_VALUES = NEAR_MISSES | _nested(_nested(SCHEMA_SCALARS))
SUB_KEYS = {"grid": ["d", "L", "n", "h"], "weight": ["kind", "p", "q"]}
JSONSCHEMA_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


@st.composite
def schema_instance(draw):
    """A config with every key set, then keys replaced, added or dropped at
    the top level and in one of its objects; one time in ten, any value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(SCHEMA_VALUES)
    raw = {**copy.deepcopy(BASE_CFG), "window": [0.0, 1.0], "gauge_chi": None}
    top = CONFIG_KEYS + ["frobnicate"]
    for key in draw(st.lists(st.sampled_from(top), max_size=3)):
        raw[key] = draw(SCHEMA_VALUES)
    for key in draw(st.lists(st.sampled_from(top), max_size=2)):
        raw.pop(key, None)
    sub = draw(st.sampled_from(sorted(SUB_KEYS)))
    if isinstance(raw.get(sub), dict):
        for key in draw(st.lists(st.sampled_from(SUB_KEYS[sub]), max_size=2)):
            if draw(st.booleans()):
                raw[sub].pop(key, None)
            else:
                raw[sub][key] = draw(SCHEMA_VALUES)
    return raw


def cfg_with(**overrides):
    raw = copy.deepcopy(BASE_CFG)
    raw.update(overrides)
    return ScenarioConfig.from_dict(raw)


class TestConfigValidation:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CFG))
        cfg = ScenarioConfig.from_json(str(path))
        assert cfg.symbol == BASE_CFG["symbol"]
        assert cfg.config_hash() == ScenarioConfig.from_dict(BASE_CFG).config_hash()

    def test_odd_n_rejected_before_compute(self):
        raw = copy.deepcopy(BASE_CFG)
        raw["grid"]["n"] = 97
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_unknown_key_rejected(self):
        raw = copy.deepcopy(BASE_CFG)
        raw["frobnicate"] = True
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_frequency_headroom_lint(self):
        raw = copy.deepcopy(BASE_CFG)
        raw["suites"] = ["thm2-exp-decay"]
        raw["grid"] = {"d": 1, "L": 30.0, "n": 64}  # nyquist 3.35 < 8 sqrt(2)
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_eps_overflow_lint(self):
        raw = copy.deepcopy(BASE_CFG)
        raw["grid"] = {"d": 1, "L": 5e5, "n": 512}
        raw["eps_list"] = [0.9]
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_polynomial_weight_overflow_lint(self, tmp_path, capsys):
        # <0.1 x>^1000 reaches 10^500 at |x| = 30
        raw = copy.deepcopy(BASE_CFG)
        raw["grid"] = {"d": 1, "L": 30.0, "n": 128}
        raw["weight"] = {"kind": "polynomial", "p": 1000}
        raw["eps_list"] = [0.1]
        with pytest.raises(ConfigError, match="overflows the polynomial weight"):
            validate_config(raw)
        path = tmp_path / "p1000.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["conjugate", "--config", str(path)]) == 2
        assert "overflows the polynomial weight" in capsys.readouterr().err

    def test_unsorted_eps_rejected(self):
        raw = copy.deepcopy(BASE_CFG)
        raw["eps_list"] = [0.1, 0.05]
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_unknown_key_rejected_by_from_dict(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({**BASE_CFG, "frobnicate": True})

    def test_missing_required_key_rejected(self):
        raw = copy.deepcopy(BASE_CFG)
        del raw["grid"]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_defaults_come_from_the_dataclass(self):
        cfg = ScenarioConfig.from_dict({"symbol": "relativistic", "grid": BASE_CFG["grid"]})
        assert cfg == ScenarioConfig("relativistic", BASE_CFG["grid"])

    def test_schema_is_valid_against_its_meta_schema(self):
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize("raw", [
        {"symbol": "relativistic"},
        {"symbol": 3, "grid": {"d": 1, "L": 5.0, "n": 16}},
        {"symbol": "relativistic", "grid": {"d": 3, "L": -1.0, "n": 2}},
        {"symbol": "relativistic", "grid": {"d": 1, "L": 5.0, "n": 16}, "extra": 1},
    ])
    def test_schema_message_matches_jsonschema_validate(self, raw):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            validate_config(raw)
        assert str(got.value) == f"config schema violation: {want.value.message}"

    @settings(max_examples=2000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=schema_instance())
    @example(raw={"symbol": "relativistic", "grid": {"d": True, "L": 0, "n": 2.5}, "a": 1,
                  "b": None})
    @example(raw={"symbol": None, "grid": [], "window": [1], "eps_list": []})
    def test_schema_interpreter_agrees_with_jsonschema(self, raw):
        want = [(tuple(e.path), e.message) for e in JSONSCHEMA_VALIDATOR.iter_errors(raw)]
        assert list(_schema_errors(CONFIG_SCHEMA, raw)) == want
        best = jsonschema.exceptions.best_match(JSONSCHEMA_VALIDATOR.iter_errors(raw))
        if best is not None:
            with pytest.raises(ConfigError) as got:
                validate_config(raw)
            assert str(got.value) == f"config schema violation: {best.message}"

    def test_schema_uses_only_interpreted_keywords(self):
        def keywords(schema):
            for keyword, arg in schema.items():
                yield keyword
                if keyword == "properties":
                    for sub in arg.values():
                        yield from keywords(sub)
                elif keyword == "items":
                    yield from keywords(arg)
                elif keyword == "additionalProperties":
                    # a subschema here would go unchecked
                    assert isinstance(arg, bool)

        assert set(keywords(CONFIG_SCHEMA)) <= _SCHEMA_KEYWORDS

    def test_unimplemented_keyword_is_refused(self):
        with pytest.raises(ValueError, match="pattern"):
            list(_schema_errors({"type": "string", "pattern": "^a"}, "b"))

    @pytest.mark.parametrize("sub, key, value", [
        ("grid", "d", 1.0), ("grid", "n", 96.0), ("weight", "p", 2.0), (None, "seed", 7.0)])
    def test_integral_floats_in_integer_keys_become_ints(self, sub, key, value):
        as_int, as_float = copy.deepcopy(BASE_CFG), copy.deepcopy(BASE_CFG)
        for raw, v in ((as_int, int(value)), (as_float, value)):
            (raw if sub is None else raw[sub])[key] = v
        cfg = ScenarioConfig.from_dict(as_float)
        got = cfg.seed if sub is None else getattr(cfg, sub)[key]
        assert type(got) is int and got == value
        assert cfg == ScenarioConfig.from_dict(as_int)
        assert cfg.config_hash() == ScenarioConfig.from_dict(as_int).config_hash()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="-1 is less than the minimum of 0"):
            ScenarioConfig.from_dict({**BASE_CFG, "seed": -1})

    def test_schema_lists_the_dataclass_fields(self):
        fields = dataclasses.fields(ScenarioConfig)
        assert set(CONFIG_SCHEMA["properties"]) == {f.name for f in fields}
        assert set(CONFIG_SCHEMA["required"]) == {
            f.name for f in fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}

    def test_midpoint_table_over_budget_rejected(self):
        # N = 256^2: ten complex128 N x N matrices, about 690 GB
        with pytest.raises(ConfigError, match="N x N operator"):
            ScenarioConfig.from_dict({"symbol": "relativistic",
                                      "grid": {"d": 2, "L": 6, "n": 256}})

    def test_budget_is_the_run_not_the_assembly(self):
        # ten words of N = 60^2 are 2.07e9 bytes, of N = 62^2 2.36e9, around
        # the 2 GiB budget; assembly alone would hold 1.5 words of either
        ScenarioConfig.from_dict({"symbol": "relativistic", "grid": {"d": 2, "L": 6, "n": 60}})
        with pytest.raises(ConfigError, match="N x N operator"):
            ScenarioConfig.from_dict({"symbol": "relativistic",
                                      "grid": {"d": 2, "L": 6, "n": 62}})

    def test_defaulted_eps_list_is_linted(self):
        # default eps 0.1 on L = 7000 overflows the default exponential weight
        with pytest.raises(ConfigError, match="overflows"):
            ScenarioConfig.from_dict({"symbol": "relativistic",
                                      "grid": {"d": 1, "L": 7000.0, "n": 10000}})

    @pytest.mark.parametrize("field, value", [
        ("symbol", "relativistic+gauss_well:depth=x"),
        ("symbol", "kinetic+gauss_well:depth"),
        ("symbol", "kinetic+gauss_well:wat=1"),
        ("symbol", "kinetic+no_such_well:depth=2"),
        ("symbol", "neg_order+gauss_well:depth=x"),
    ])
    def test_malformed_potential_id_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({**BASE_CFG, field: value})

    def test_well_depth_sets_the_headroom_lint(self):
        # Nyquist pi n / 2L = 3.35 passes 2 x 1 but not 2 x sqrt(4)
        raw = {**BASE_CFG, "grid": {"d": 1, "L": 30.0, "n": 64}}
        ScenarioConfig.from_dict({**raw, "symbol": "relativistic"})
        with pytest.raises(ConfigError, match="headroom"):
            ScenarioConfig.from_dict({**raw, "symbol": "relativistic+gauss_well:depth=4,width=1"})

    @pytest.mark.parametrize("field, value", [("symbol", "nope"), ("field", "bogus"),
                                              ("field", "cos2d:amp=1")])
    def test_unknown_or_misdimensioned_id_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({**BASE_CFG, field: value})

    @pytest.mark.parametrize("field, value", [
        ("essential_threshold", float("nan")), ("essential_threshold", float("inf")),
        ("margin", float("nan")), ("window", [float("nan"), 5.0]),
        ("window", [1.0, float("inf")])])
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            ScenarioConfig.from_dict({**BASE_CFG, field: value})

    @pytest.mark.parametrize("symbol", ["kinetic+coulomb_like:alpha=1,reg=0",
                                        "kinetic+bounded_bump:height=inf",
                                        "kinetic+coulomb_like:alpha=1,reg=-0.1",
                                        "kinetic+gauss_well:depth=2,width=0",
                                        "kinetic+gauss_well:depth=2,width=-1",
                                        "kinetic+bounded_bump:height=1,width=0"])
    def test_degenerate_potential_parameters_rejected(self, symbol):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({**BASE_CFG, "symbol": symbol})

    @pytest.mark.parametrize("pid, key", [("coulomb_like:alpha=1,reg=0", "reg"),
                                          ("gauss_well:depth=2,width=-1", "width"),
                                          ("bounded_bump:width=0", "width")])
    def test_degenerate_potential_names_its_parameter(self, pid, key):
        with pytest.raises(ConfigError, match=f"needs {key} > 0"):
            ScenarioConfig.from_dict({**BASE_CFG, "symbol": f"relativistic+{pid}"})

    def test_potential_key_rejected(self):
        # a potential enters only through the `+<potential>` part of the symbol id
        with pytest.raises(ConfigError, match="potential"):
            ScenarioConfig.from_dict({**BASE_CFG, "potential": "gauss_well:depth=2,width=1"})

    @given(fuzzed_config())
    @example({"symbol": "kinetic", "grid": {"d": 1, "L": 1.0, "n": 10**400}})
    @example({"symbol": "relativistic", "grid": {"d": 2, "L": 6, "n": 256}})
    @example({"symbol": "kinetic", "grid": {"d": 1, "L": float("nan"), "n": 64}})
    @example({**BASE_CFG, "essential_threshold": float("nan")})
    @example({**BASE_CFG, "margin": float("nan")})
    @example({**BASE_CFG, "window": [float("nan"), 5.0]})
    @example({**BASE_CFG, "symbol": "relativistic+coulomb_like:alpha=1,reg=1e-300"})
    @example({**BASE_CFG, "symbol": "kinetic+bounded_bump:height=-3"})
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fuzzed_configs_raise_only_config_error(self, raw):
        try:
            cfg = ScenarioConfig.from_dict(raw)
        except ConfigError:
            return
        assert isinstance(cfg, ScenarioConfig)


class TestSuites:
    def test_unknown_suite_name(self):
        with pytest.raises(ConfigError):
            verify_suite("nonsense", cfg_with())

    def test_quantize_core_passes(self):
        checks = verify_suite("quantize-core", cfg_with())
        assert checks
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.details}" for c in failed]

    def test_imaginary_part_of_f_fails_the_hermiticity_defect(self):
        """f + 1e-6 i <eta> is no real symbol. op_weyl removes the
        anti-Hermitian part of fhat, so H stays Hermitian, and the reported
        defect measures that removed part, |fhat - conj fhat o P| / |fhat|:
        about 2e-6 against the 1e-8 tolerance."""
        sc = Scenario(cfg_with())
        f = sc.symbol.f
        sc.__dict__["symbol"] = dataclasses.replace(
            sc.symbol, f=lambda e: f(e) + 1e-6j * bracket(e))
        check = {c.name: c for c in verify_suite("quantize-core", sc)}["hermiticity-defect"]
        assert not check.passed, check.details

    def test_lemmas_weights_passes(self):
        cfg = cfg_with(grid={"d": 1, "L": 20.0, "n": 128})
        checks = verify_suite("lemmas-weights", cfg)
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.details}" for c in failed]

    def test_thm1_suite_passes(self):
        cfg = cfg_with(symbol="kinetic+gauss_well:depth=2,width=1",
                       grid={"d": 1, "L": 24.0, "n": 192},
                       suites=["thm1-rapid-decay"])
        checks = verify_suite("thm1-rapid-decay", cfg)
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.details}" for c in failed]

    def test_thm2_suite_passes(self):
        cfg = cfg_with(grid={"d": 1, "L": 30.0, "n": 256},
                       eps_list=[0.0125, 0.025, 0.05, 0.1],
                       suites=["thm2-exp-decay"])
        checks = verify_suite("thm2-exp-decay", cfg)
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.details}" for c in failed]

    def test_thm3_suite_passes(self):
        cfg = cfg_with(grid={"d": 1, "L": 30.0, "n": 384})
        checks = verify_suite("thm3-relativistic", cfg)
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.details}" for c in failed]

    @pytest.mark.parametrize("overrides, missing", [
        ({"symbol": "kinetic+gauss_well:depth=2,width=1"}, "symbol relativistic"),
        ({"symbol": "relativistic+bounded_bump:height=1,width=1"}, "v <= 0"),
        ({"gauge_chi": "bilinear"}, "gauge_chi unset"),
        ({"field": "constant2d:b=0.5", "grid": {"d": 2, "L": 6.0, "n": 16}}, "d = 1")],
        ids=["kinetic-symbol", "repulsive-potential", "gauge-chi", "two-dimensional"])
    def test_thm3_outside_its_contract_not_applicable(self, overrides, missing):
        cfg = cfg_with(**{"grid": {"d": 1, "L": 30.0, "n": 64}, **overrides})
        with pytest.raises(NotApplicableError, match=missing):
            verify_suite("thm3-relativistic", cfg)

    def test_thm3_without_bound_state_skips_the_chain(self):
        cfg = cfg_with(symbol="relativistic", grid={"d": 1, "L": 30.0, "n": 64})
        checks = {c.name: c for c in verify_suite("thm3-relativistic", cfg)}
        assert not checks["form-sum-bound-state"].passed
        assert "pointwise-bound-chain" not in checks
        assert checks["weyl-lower-bound"].passed

    def test_quantize_core_2d_with_field(self):
        cfg = cfg_with(symbol="relativistic", field="constant2d:b=0.5",
                       grid={"d": 2, "L": 4.0, "n": 10})
        checks = verify_suite("quantize-core", cfg)
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.details}" for c in failed]

    def test_gauge_chi_override_preserves_spectrum(self):
        # the config-level potential override changes the gauge, not physics
        from magpsido.harness import scenario_context
        from magpsido.quantize import op_weyl
        base = cfg_with(symbol="relativistic", field="constant2d:b=0.5",
                        grid={"d": 2, "L": 4.0, "n": 8})
        shifted = cfg_with(symbol="relativistic", field="constant2d:b=0.5",
                           grid={"d": 2, "L": 4.0, "n": 8},
                           gauge_chi="bilinear")
        ops = []
        for cfg in (base, shifted):
            grid, sym, gauge = scenario_context(cfg)
            ops.append(op_weyl(sym, gauge, grid).entries)
        lam1 = np.linalg.eigvalsh(ops[0])
        lam2 = np.linalg.eigvalsh(ops[1])
        assert np.abs(ops[0] - ops[1]).max() > 1e-3  # genuinely different gauge
        assert np.abs(lam1 - lam2).max() < 1e-10 * np.abs(lam1).max()


class TestSharedScenario:
    """A run assembles, decomposes and sweeps once, with unchanged checks."""

    THM2 = {**BASE_CFG, "grid": {"d": 1, "L": 20.0, "n": 160},
            "eps_list": [0.025, 0.05], "suites": ["thm2-exp-decay"]}
    THM3 = {**BASE_CFG, "grid": {"d": 1, "L": 30.0, "n": 384},
            "suites": ["thm3-relativistic"]}
    GROWTH_ID = "relativistic+linear-growth"   # the weyl-lower-bound operator

    def test_run_does_no_work_twice(self, monkeypatch):
        """Assemblies (the scenario's own by its factors), decompositions and
        sweeps on the scenario's grid, by the symbol id of the operator they
        take or return ("H" for the scenario's own operator)."""
        import collections

        import magpsido.decay as dk
        import magpsido.harness as hs
        import magpsido.spectral as sp

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                op = out if name in ("op_weyl", "WeylFactors") else args[0]
                calls.append((name, getattr(op, "grid", None), getattr(op, "symbol_id", None)))
                return out
            return wrapper

        monkeypatch.setattr(hs, "op_weyl", counted("op_weyl", hs.op_weyl))
        monkeypatch.setattr(hs, "WeylFactors", counted("WeylFactors", hs.WeylFactors))
        eig = counted("eig_hermitian", hs.eig_hermitian)
        for mod in (hs, dk, sp):
            monkeypatch.setattr(mod, "eig_hermitian", eig)
        monkeypatch.setattr(dk, "uniform_bound_sweep",
                            counted("uniform_bound_sweep", dk.uniform_bound_sweep))
        for raw, want in (
                (self.THM2, {("WeylFactors", "H"): 1, ("eig_hermitian", "H"): 1,
                             ("uniform_bound_sweep", "H"): 1}),
                (self.THM3, {("WeylFactors", "H"): 1, ("eig_hermitian", "H"): 1,
                             ("op_weyl", self.GROWTH_ID): 1})):
            calls.clear()
            cfg = ScenarioConfig.from_dict(raw)
            report = run_scenario(cfg)
            assert report.all_passed, raw["suites"]
            sc = Scenario(cfg)
            own = sc.symbol.symbol_id
            assert collections.Counter((name, "H" if sid == own else sid)
                                       for name, g, sid in calls if g == sc.grid) == want

    NO_SUITE_2D = {"symbol": "relativistic", "field": "cos2d:amp=1",
                   "grid": {"d": 2, "L": 6.0, "n": 8}, "suites": []}

    def test_eigenvectors_only_when_a_suite_reads_them(self, monkeypatch):
        import magpsido.decay as dk
        import magpsido.harness as hs
        import magpsido.spectral as sp

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        eig = counted("eig_hermitian", hs.eig_hermitian)
        for mod in (hs, dk, sp):
            monkeypatch.setattr(mod, "eig_hermitian", eig)
        monkeypatch.setattr(hs, "eigvals_hermitian",
                            counted("eigvals_hermitian", hs.eigvals_hermitian))
        for raw, want, vectors in (
                (self.NO_SUITE_2D, {"eigvals_hermitian": 1}, False),
                (self.THM2, {"eig_hermitian": 1}, True)):
            calls.clear()
            report = json.loads(run_scenario(ScenarioConfig.from_dict(raw)).to_json())
            assert collections.Counter(calls) == want
            residual = report["spectra_summary"]["residual"]
            assert (residual is not None) == vectors

    def test_an_eigenvalue_only_run_never_forms_the_complex_operator(self, monkeypatch):
        # the cos2d benchmark operator (N = 1024): its real block folds from
        # the gather's slabs, so the run peaks near K's 8 N^2 bytes, below
        # the 16 N^2 of the complex H alone
        import tracemalloc

        from magpsido import _kernels

        def refused(*args, **kwargs):
            raise AssertionError("the complex H was gathered")

        monkeypatch.setattr(_kernels, "weyl_gather", refused)
        cfg = ScenarioConfig.from_dict({**self.NO_SUITE_2D, "grid": {"d": 2, "L": 6.0, "n": 32}})
        run_scenario(cfg)  # imports and first-call caches stay out of the peak
        tracemalloc.start()
        try:
            report = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.spectra_summary["symmetry"] == "conjugate-reflection"
        assert report.spectra_summary["real_arithmetic"] is False
        assert peak < 0.75 * 16 * cfg.make_grid().size**2

    QUANTIZE_2D = {"symbol": "relativistic", "field": "constant2d:b=0.5",
                   "grid": {"d": 2, "L": 6.0, "n": 8}, "suites": ["quantize-core"]}

    def test_each_operator_is_tested_for_its_symmetry_once(self, monkeypatch):
        # quantize-core solves H (eigenpairs) and its bilinear-shifted copy
        # (eigenvalues only); the spectra summary reuses H's symmetry. With no
        # suite, H's slabs decide its symmetry, H is never formed, and its
        # real block is solved as a bare array, which block_symmetry takes as
        # one block without a test
        import magpsido.harness as hs
        import magpsido.spectral as sp

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sp, "block_symmetry", counted("block_symmetry", sp.block_symmetry))
        monkeypatch.setattr(hs, "block_symmetry", counted("block_symmetry", hs.block_symmetry))
        monkeypatch.setattr(hs, "eig_hermitian", counted("eig_hermitian", hs.eig_hermitian))
        for name in ("eigvals_hermitian", "slab_blocks"):
            monkeypatch.setattr(hs, name, counted(name, getattr(hs, name)))
        for raw, want in (
                (self.NO_SUITE_2D, {"slab_blocks": 1, "block_symmetry": 1,
                                    "eigvals_hermitian": 1}),
                (self.QUANTIZE_2D, {"block_symmetry": 2, "eig_hermitian": 1,
                                    "eigvals_hermitian": 1})):
            calls.clear()
            report = run_scenario(ScenarioConfig.from_dict(raw))
            assert report.all_passed
            assert report.spectra_summary["symmetry"] == "conjugate-reflection"
            assert collections.Counter(calls) == want

    @pytest.mark.parametrize("suites", [["thm2-exp-decay"],
                                        ["quantize-core", "lemmas-weights",
                                         "thm1-rapid-decay"]])
    def test_shared_run_matches_separate_suites(self, suites):
        cfg = ScenarioConfig.from_dict({**self.THM2, "suites": suites})
        report = run_scenario(cfg)
        for name in suites:
            alone = verify_suite(name, cfg)
            shared = report.suites[name]
            assert [(c.name, c.passed) for c in alone] == [
                (c["name"], c["passed"]) for c in shared]
            for a, b in zip(alone, shared):
                assert a.margin == pytest.approx(b["margin"], rel=1e-8, abs=1e-8)


class TestRealArithmetic:
    """Zero-field operators with a real even symbol run in float64."""

    def test_thm2_workload_stays_real(self):
        import magpsido.decay as dk
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "thm2_exp_decay.json")
        cfg = ScenarioConfig.from_json(path)
        H = Scenario(cfg).H
        assert H.entries.dtype == np.float64
        conj = dk.conjugate_operator(H, cfg.make_weight(), cfg.eps_list[-1])
        assert conj.entries.dtype == np.float64

    @pytest.mark.parametrize("field, grid, real", [
        ("zero", {"d": 1, "L": 12.0, "n": 48}, True),
        ("constant2d:b=0.5", {"d": 2, "L": 4.0, "n": 8}, False)])
    def test_spectra_summary_names_the_arithmetic(self, field, grid, real):
        report = run_scenario(cfg_with(field=field, grid=grid, suites=[]))
        assert report.spectra_summary["real_arithmetic"] is real

    @pytest.mark.parametrize("symbol, field, d, name, blocks", [
        ("relativistic", "zero", 1, "parity", [5, 3]),
        ("relativistic", "cos2d:amp=1", 2, "conjugate-reflection", None),
        ("relativistic+gauss_well:depth=1,width=1", "constant2d:b=0.5", 2, "whole", None)])
    def test_spectra_summary_names_the_symmetry(self, symbol, field, d, name, blocks):
        # `real_arithmetic` names H's storage, which stays complex when the
        # conjugate reflection solves it in real arithmetic
        raw = {"symbol": symbol, "field": field, "grid": {"d": d, "L": 4.0, "n": 8},
               "suites": []}
        summary = run_scenario(ScenarioConfig.from_dict(raw)).spectra_summary
        assert summary["symmetry"] == name
        assert summary["parity_blocks"] == blocks
        assert summary["real_arithmetic"] is (d == 1)

    def test_spectra_summary_gaps_are_the_bound_state_gaps(self):
        # the shipped thm2 box has exactly degenerate continuum pairs, so the
        # smallest gap of the whole spectrum says nothing about the bound states
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "configs", "thm2_exp_decay.json")
        cfg = dataclasses.replace(ScenarioConfig.from_json(path), suites=[])
        sc = Scenario(cfg)
        assert np.diff(sc.dec.eigenvalues).min() < 1e-9
        gaps = run_scenario(cfg).spectra_summary["bound_state_gaps"]
        # eigenvalue-only and full solves round differently (3e-15 relative)
        assert gaps == pytest.approx([gap for _, _, gap in sc.bound_states], rel=1e-12)
        assert len(gaps) == 3 and min(gaps) > 0.05


def _shipped(name):
    return ScenarioConfig.from_json(os.path.join(CONFIG_DIR, name))


def _shift_bound_eigenvalues(sc, monkeypatch):
    """Each bound eigenvalue moved by 1e-7 of the spectral scale, ten times the
    transport tolerance."""
    scale = max(float(np.abs(sc.dec.eigenvalues).max()), 1.0)
    sc.__dict__["bound_states"] = [(lam + 1e-7 * scale, u, gap)
                                   for lam, u, gap in sc.bound_states]
    return sc


def _reverse_conjugation(sc, monkeypatch):
    """F^{-1} H F in place of F H F^{-1}."""
    def reversed_conjugate(op, w, eps):
        f = w(eps, op.grid.nodes)
        return OperatorMatrix((f[None, :] / f[:, None]) * op.entries, op.grid)

    monkeypatch.setattr(dk, "conjugate_operator", reversed_conjugate)
    return sc


def _threshold_below_ground_state(sc, monkeypatch):
    lam0 = float(sc.dec.eigenvalues[0])
    return Scenario(dataclasses.replace(sc.cfg, essential_threshold=lam0 - 1.0))


def _order_lowered_by_one(sc, monkeypatch):
    """The symbol declares order m - 1: (c_eps - a)/eps then grows like <eta>
    against the declared bound, ratio 2.00 between the eta radii 16 and 8."""
    sc.__dict__["symbol"] = dataclasses.replace(sc.symbol, order=sc.symbol.order - 1.0)
    return sc


def _order_lowered_by_half(sc, monkeypatch):
    """The symbol declares order m - 1/2: ratio 1.42 against the 1.05 slack."""
    sc.__dict__["symbol"] = dataclasses.replace(sc.symbol, order=sc.symbol.order - 0.5)
    return sc


def _tripled_imaginary_part(sc, monkeypatch):
    """analytic_ext reads Re zeta + 3i Im zeta: c_eps shifts three times as far
    while the contour gradient only doubles (ratio 1.51)."""
    f = sc.symbol.f
    sc.__dict__["symbol"] = dataclasses.replace(
        sc.symbol,
        f=lambda zeta: f(zeta.real + 3j * zeta.imag) if np.iscomplexobj(zeta) else f(zeta))
    return sc


def _doubled_shift_field(sc, monkeypatch):
    """b_eps scaled by 2, so c_eps shifts the frequency twice as far as the
    weight ratio asks (ratio 3.6e-3 against the 1e-3 tolerance) and max |b|
    reads 1.96."""
    b_shift = dk.b_shift
    monkeypatch.setattr(dk, "b_shift", lambda eps, x, y: 2.0 * b_shift(eps, x, y))
    return sc


Registry = collections.namedtuple("Registry", "configs fixtures no_fixture_yet")

DECAY_CONFIGS = {"thm1-rapid-decay": "thm1_rapid_decay.json",
                 "thm2-exp-decay": "thm2_exp_decay.json"}
# per group of suites: the shipped config of each suite, the perturbations of
# a scenario under which a check must fail, and the checks that no
# perturbation is known to fail yet
REGISTRIES = (
    Registry(DECAY_CONFIGS,
             {"weighted-eigenvector": (_shift_bound_eigenvalues, _reverse_conjugation),
              "discrete-spectrum-nonempty": (_threshold_below_ground_state,)},
             {"rapid-decay-order", "exponential-decay-fit", "uniform-relative-bound",
              "epsilon0-estimates", "weighted-sup-certificate"}),
    Registry({"lemmas-weights": "lemmas_weights.json"},
             {"conjugation-amplitude-match": (_doubled_shift_field,),
              "shift-field-bound": (_doubled_shift_field,),
              "remainder-symbol-order": (_order_lowered_by_one, _order_lowered_by_half,
                                         _tripled_imaginary_part)},
             {"cauchy-derivative-bound", "exp-weight-identity", "poly-weight-identity"}),
)
SUITE_REGISTRY = {suite: reg for reg in REGISTRIES for suite in reg.configs}


class TestCheckFixtures:
    """Every check of a registered suite either fails under a named
    perturbation or is listed in its registry's no_fixture_yet."""

    @pytest.mark.parametrize("suite", SUITE_REGISTRY)
    def test_every_check_has_a_fixture_or_is_listed(self, suite):
        reg = SUITE_REGISTRY[suite]
        checks = verify_suite(suite, _shipped(reg.configs[suite]))
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        unregistered = {c.name for c in checks} - set(reg.fixtures) - reg.no_fixture_yet
        assert not unregistered

    def test_registry_lists_live_checks_once(self):
        for reg in REGISTRIES:
            emitted = {c.name for suite, name in reg.configs.items()
                       for c in verify_suite(suite, _shipped(name))}
            assert not set(reg.fixtures) & reg.no_fixture_yet
            assert set(reg.fixtures) | reg.no_fixture_yet == emitted

    @pytest.mark.parametrize("suite, check, fixture", [
        pytest.param(suite, check, fixture,
                     id=f"{suite}-{fixture.__name__.strip('_')}-{check}")
        for suite, reg in SUITE_REGISTRY.items()
        for check, fixtures in reg.fixtures.items() for fixture in fixtures])
    def test_fixture_fails_its_check(self, suite, check, fixture, monkeypatch):
        sc = fixture(Scenario(_shipped(SUITE_REGISTRY[suite].configs[suite])), monkeypatch)
        result = {c.name: c for c in verify_suite(suite, sc)}
        assert not result[check].passed, result[check].details

    @staticmethod
    def _nan_at_the_origin(monkeypatch):
        weight = dk.WeightFamily.__call__

        def nan_at_the_origin(self, eps, x):
            f = weight(self, eps, x).copy()
            f[len(f) // 2] = np.nan
            return f

        monkeypatch.setattr(dk.WeightFamily, "__call__", nan_at_the_origin)

    def test_nan_weight_fails_transport(self, monkeypatch):
        # a NaN residual must fail the check, not read as a zero one
        self._nan_at_the_origin(monkeypatch)
        sc = Scenario(_shipped(DECAY_CONFIGS["thm1-rapid-decay"]))
        check = {c.name: c for c in verify_suite("thm1-rapid-decay", sc)}["weighted-eigenvector"]
        assert not check.passed, check.details

    def test_nan_weight_report_is_strict_json(self, monkeypatch):
        self._nan_at_the_origin(monkeypatch)
        text = run_scenario(_shipped(DECAY_CONFIGS["thm1-rapid-decay"])).to_json()
        report = json.loads(text, parse_constant=_refuse_constant)
        check = {c["name"]: c for c in report["suites"]["thm1-rapid-decay"]}
        assert check["weighted-eigenvector"]["margin"] is None
        assert not report["all_passed"]

    @pytest.mark.parametrize("suite", DECAY_CONFIGS)
    def test_transport_covers_every_bound_state_and_eps(self, suite):
        cfg = _shipped(DECAY_CONFIGS[suite])
        sc = Scenario(cfg)
        check = {c.name: c for c in verify_suite(suite, sc)}["weighted-eigenvector"]
        assert (f"over {len(sc.bound_states)} bound states x {len(cfg.eps_list)} eps"
                in check.details)

    def test_thm1_selects_only_true_bound_states(self):
        # kinetic essential spectrum is [0, inf): the box continuum stays out
        cfg = dataclasses.replace(_shipped("thm1_rapid_decay.json"), suites=[])
        summary = run_scenario(cfg).spectra_summary
        assert summary["discrete_count"] == 2
        assert [round(lam, 3) for lam in summary["lowest"][:2]] == [-1.188, -0.075]


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestReports:
    def test_determinism_modulo_timings(self, tmp_path):
        cfg = cfg_with(suites=["lemmas-weights"],
                       grid={"d": 1, "L": 16.0, "n": 64})
        r1 = run_scenario(cfg).to_dict()
        r2 = run_scenario(cfg).to_dict()
        r1.pop("timings"); r2.pop("timings")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_json_report_round_trip(self, tmp_path):
        cfg = cfg_with(suites=["lemmas-weights"],
                       grid={"d": 1, "L": 16.0, "n": 64})
        out = tmp_path / "rep.json"
        report = run_scenario(cfg, str(out))
        loaded = json.loads(out.read_text())
        assert loaded == json.loads(report.to_json())

    def test_csv_schemas(self, tmp_path):
        sweep = write_sweep_csv([(0.05, 0.1, 0.005, True)], str(tmp_path / "s.csv"))
        spectrum = write_spectrum_csv([0.5, 2.0], str(tmp_path / "e.csv"))
        kato = write_kato_csv([(1.0, 0.25)], str(tmp_path / "k.csv"))
        for path, header, rows in ((sweep, "epsilon,rel_bound,eps_rel_bound,flag", 1),
                                   (spectrum, "index,eigenvalue,gap", 2),
                                   (kato, "t,sup_value", 1)):
            with open(path, newline="") as fh:
                lines = fh.read().split("\r\n")  # csv's own line ends, untranslated
            assert lines[0] == header
            assert len(lines) == rows + 2 and lines[-1] == ""

    def test_spectrum_csv_gap_is_nearest_neighbour_distance(self, tmp_path):
        path = write_spectrum_csv([0.0, 1.0, 1.1, 3.0], str(tmp_path / "spectrum.csv"))
        with open(path, newline="") as fh:
            gaps = [float(row["gap"]) for row in csv.DictReader(fh)]
        assert gaps == pytest.approx([1.0, 0.1, 0.1, 1.9], abs=1e-12)

    def test_empty_suite_list_is_valid(self, tmp_path):
        cfg = cfg_with(suites=[])
        report = run_scenario(cfg)
        assert report.suites == {}
        assert report.all_passed

    def test_atomic_write_no_partial_file(self, tmp_path):
        target = tmp_path / "sub" / "x.json"
        write_atomic(str(target), "{}")
        assert target.read_text() == "{}"
        leftovers = [p for p in os.listdir(tmp_path / "sub") if p.endswith(".tmp")]
        assert not leftovers

    def test_merge_reports(self, tmp_path):
        for i, ok in enumerate((True, True)):
            write_atomic(str(tmp_path / f"r{i}.json"),
                         json.dumps({"all_passed": ok, "suites": {}}))
        out = tmp_path / "merged.json"
        merge_reports(str(tmp_path), str(out))
        merged = json.loads(out.read_text())
        assert merged["all_passed"]
        assert len(merged["reports"]) == 2


    def test_merge_reports_writes_non_finite_floats_as_null(self, tmp_path):
        (tmp_path / "in").mkdir()
        # a report written before non-finite floats became null
        (tmp_path / "in" / "r.json").write_text(
            '{"all_passed": false, "margins": [NaN, Infinity, -Infinity, 0.5]}')
        out = tmp_path / "merged.json"
        merge_reports(str(tmp_path / "in"), str(out))
        merged = json.loads(out.read_text(), parse_constant=_refuse_constant)
        assert merged["reports"][0]["margins"] == [None, None, None, 0.5]

    def test_merge_reports_missing_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            merge_reports(str(tmp_path / "missing"), str(tmp_path / "merged.json"))

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\xff"])
    def test_merge_reports_names_the_bad_report(self, tmp_path, text):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "bad.json").write_text(text, encoding="latin-1")
        with pytest.raises(FormatError, match="bad.json"):
            merge_reports(str(tmp_path / "in"), str(tmp_path / "merged.json"))
        assert not (tmp_path / "merged.json").exists()

    @pytest.mark.parametrize("text", ["", "{", "\xff\xfe"])
    def test_from_json_malformed_file(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(ConfigError, match="cfg.json"):
            ScenarioConfig.from_json(str(path))

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="No such file"):
            ScenarioConfig.from_json(str(tmp_path / "missing.json"))


class TestCli:
    def write_cfg(self, tmp_path, **overrides):
        raw = copy.deepcopy(BASE_CFG)
        raw.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_build_and_spectrum(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, grid={"d": 1, "L": 12.0, "n": 48})
        op_path = str(tmp_path / "op.mpdo")
        assert cli_main(["build", "--config", cfg, "--out", op_path]) == 0
        out = str(tmp_path / "spec.csv")
        code = cli_main(["spectrum", "--op", op_path, "--threshold", "1.0",
                         "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "index,eigenvalue,gap"
        assert "discrete eigenvalues" in capsys.readouterr().out

    def test_build_report_names_the_arithmetic(self, tmp_path):
        cfg = self.write_cfg(tmp_path, grid={"d": 1, "L": 12.0, "n": 48})
        rep = tmp_path / "build.json"
        assert cli_main(["build", "--config", cfg, "--out", str(tmp_path / "op.mpdo"),
                         "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["real_arithmetic"] is True

    def test_decay_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, grid={"d": 1, "L": 24.0, "n": 192})
        out = str(tmp_path / "decay.json")
        assert cli_main(["decay", "--config", cfg, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["fits"]["exponential"]["rate"] > 0

    def test_conjugate_command(self, tmp_path):
        cfg = self.write_cfg(tmp_path, grid={"d": 1, "L": 16.0, "n": 64})
        out = str(tmp_path / "sweep.csv")
        code = cli_main(["conjugate", "--config", cfg,
                         "--eps-list", "0.05,0.1", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "epsilon,rel_bound,eps_rel_bound,flag"
        assert len(lines) == 3

    def test_semigroup_command(self, capsys):
        assert cli_main(["semigroup", "--t", "1.0", "--n", "128", "--L", "10"]) == 0
        out = capsys.readouterr().out
        assert "mass" in out

    def test_kato_command(self, tmp_path):
        out = str(tmp_path / "kato.csv")
        code = cli_main(["kato", "--potential", "bounded_bump:height=1,width=1",
                         "--t-scan", "--t0", "1.0", "--halvings", "3",
                         "--n", "128", "--L", "15", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "t,sup_value"
        assert len(lines) == 5

    def test_verify_exit_codes(self, tmp_path):
        # the conjugation-match tolerance is calibrated at this grid scale
        cfg = self.write_cfg(tmp_path, grid={"d": 1, "L": 20.0, "n": 128})
        assert cli_main(["verify", "lemmas-weights", "--config", cfg]) == 0

    def test_verify_unknown_config_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"symbol": "nope", "grid": {"d": 1, "L": 5.0, "n": 16}}))
        assert cli_main(["verify", "lemmas-weights", "--config", str(bad)]) == 2

    def test_report_merge_command(self, tmp_path):
        write_atomic(str(tmp_path / "a.json"),
                     json.dumps({"all_passed": True, "suites": {}}))
        out = str(tmp_path / "merged.json")
        assert cli_main(["report", "--in", str(tmp_path), "--out", out]) == 0
