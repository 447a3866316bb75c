"""Per-layer figures of traced passes, named as in BENCHMARK.json.

Conventions: `<fn>.s` sums the durations of a function's calls (a call nested
in a call of the same function is not counted twice; calls running at once on
pool threads all count), `<fn>.self_s` and `<layer>.self_s` sum self times as
defined by `tracer.self_times`, and sizes are computed from array shapes.
Each figure is the median over the run's traced passes.
"""
import collections
import statistics

from tracer import layer_prefix, LAYERS, self_times

SUITES = ("quantize-core", "lemmas-weights", "thm1-rapid-decay", "thm2-exp-decay",
          "thm3-relativistic")
REPORT_SPANS = ("harness.ScenarioReport.to_json", "harness.write_atomic")


class PassView:
    """Index over the spans of one traced pass."""

    def __init__(self, spans, timings):
        self.spans = spans
        self.timings = timings          # per command: report timings or None
        self.by_id = {s.id: s for s in spans}
        self.by_name = collections.defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        self.self = self_times(spans)
        self.roots = sorted((s for s in spans if s.parent is None), key=lambda s: s.start)

    def _inside_same(self, span):
        p = self.by_id.get(span.parent)
        while p is not None:
            if p.name == span.name:
                return True
            p = self.by_id.get(p.parent)
        return False

    def root_of(self, span):
        while span.parent is not None and span.parent in self.by_id:
            span = self.by_id[span.parent]
        return span

    def s(self, *names):
        return sum(sp.end - sp.start for n in names for sp in self.by_name[n]
                   if not self._inside_same(sp))

    def calls(self, name):
        return len(self.by_name[name])

    def self_s(self, name):
        return sum(self.self[sp.id] for sp in self.by_name[name])

    def attr(self, name, key):
        return sum(sp.attrs[key] for sp in self.by_name[name] if sp.attrs)

    def failed(self, *names):
        return sum(1 for n in names for sp in self.by_name[n] if sp.error)

    def layer_self(self, prefix):
        return sum(self.self[sp.id] for sp in self.spans
                   if sp.name.split(".", 1)[0] == prefix)

    def suite_times(self):
        """Seconds per suite and for the spectra summary, from each run
        report's own `timings`. A command that died before writing its report
        falls back to its spans: `verify_suite` calls for the suites, and the
        stretch from the last suite to report serialization for the spectra."""
        out = collections.Counter()
        for root, timings in zip(self.roots, self.timings):
            if timings is not None:
                out.update(timings)
                continue
            inside = [sp for sp in self.spans if self.root_of(sp) is root]
            suites = sorted((sp for sp in inside if sp.name == "harness.verify_suite"
                             and sp.attrs), key=lambda sp: sp.start)
            for sp in suites:
                out[sp.attrs["suite"]] += sp.end - sp.start
            runs = [sp for sp in inside if sp.name == "harness.run_scenario"]
            dumps = [sp for sp in inside if sp.name == REPORT_SPANS[0]]
            if runs and dumps:
                begin = suites[-1].end if suites else runs[0].start
                out["spectra"] += dumps[0].start - begin
        return out


def _pass_figures(view):
    suite = view.suite_times()
    fig = {
        "gauge.phase_table.s": view.s("gauge.phase_table"),
        "gauge.phase_table.calls": view.calls("gauge.phase_table"),
        "gauge.phase_table.pairs": view.attr("gauge.phase_table", "pairs"),
        "quantize.op_weyl.calls": view.calls("quantize.op_weyl"),
        "quantize.op_weyl.self_s": view.self_s("quantize.op_weyl"),
        "quantize.hermitize.s": view.s("quantize.hermitize"),
        "quantize.op_amplitude.s": view.s("quantize.op_amplitude"),
        "kernels.weyl_gather.s": view.s("kernels.weyl_gather"),
        "kernels.weyl_gather.bytes": view.attr("kernels.weyl_gather", "bytes"),
        "spectral.eig_hermitian.s": view.s("spectral.eig_hermitian"),
        "spectral.eig_hermitian.calls": view.calls("spectral.eig_hermitian"),
        "spectral.relative_bound.s": view.s("spectral.relative_bound"),
        "spectral.relative_bound.calls": view.calls("spectral.relative_bound"),
        "spectral.riesz_projector.s": view.s("spectral.riesz_projector"),
        "spectral.matrix_exp_neg.s": view.s("spectral.matrix_exp_neg"),
        "decay.uniform_bound_sweep.s": view.s("decay.uniform_bound_sweep"),
        "decay.uniform_bound_sweep.calls": view.calls("decay.uniform_bound_sweep"),
        "decay.uniform_bound_sweep.self_s": view.self_s("decay.uniform_bound_sweep"),
        "decay.conjugate_operator.s": view.s("decay.conjugate_operator"),
        "decay.decay_fit.s": view.s("decay.decay_fit"),
        "relativistic.bessel_k.s": view.s("relativistic.bessel_k"),
        "relativistic.bessel_k.calls": view.calls("relativistic.bessel_k"),
        "relativistic.kato_estimate.s": view.s("relativistic.kato_estimate"),
        "relativistic.build_form_sum.s": view.s("relativistic.build_form_sum"),
        "harness.spectra.s": suite["spectra"],
        "harness.verify_suite.self_s": view.self_s("harness.verify_suite"),
        "harness.report_json.s": view.s(*REPORT_SPANS),
        "harness.report_json.failed": view.failed(*REPORT_SPANS),
        "mpdo.save_operator.s": view.s("mpdo.save_operator"),
        "mpdo.load_operator.s": view.s("mpdo.load_operator"),
        "mpdo.bytes": (view.attr("mpdo.save_operator", "bytes")
                       + view.attr("mpdo.load_operator", "bytes")),
        "trace.spans": len(view.spans),
    }
    for name in SUITES:
        fig[f"harness.suite.{name}.s"] = suite[name]
    for module in LAYERS:
        prefix = layer_prefix(module)
        fig[f"{prefix}.self_s"] = view.layer_self(prefix)
    return fig


def per_layer(traced, traced_walls, untraced_walls):
    """Median per-layer figures over traced passes.

    `traced` holds (spans, report timings per command) for each traced pass.
    `trace.overhead_s` is the median traced pass wall time minus the median
    untraced one in the same run.
    """
    figures = [_pass_figures(PassView(spans, timings)) for spans, timings in traced]
    out = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced_walls)
    return out
