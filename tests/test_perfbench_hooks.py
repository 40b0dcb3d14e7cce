"""The names perfbench's traced passes wrap still exist and report what they did.

perfbench/tracing.py wraps the package's functions by name and records
the LP dimensions from the result of `synthesis.assemble_lp`; a rename in
the package would leave a traced benchmark run with silent zeros.  The
`stress` set-up rebuilds frozen FIRs through `SwitchingFIR`'s dataclass
fields, `coeffs` and `histories()`, so that surface is pinned here too.
"""
import sys
from pathlib import Path

import numpy as np

from switchguard import cli, synthesis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import metrics  # noqa: E402
import tracing  # noqa: E402


def test_traced_synth_and_certify_report_the_lp(nominal_setup):
    plant, model, automaton, config = nominal_setup
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        with tracer.span("bench.synth", kind="synth", label="nominal"):
            result = synthesis.synthesize(plant, model, automaton, config)
        with tracer.span("bench.certify", kind="certify", label="nominal"):
            synthesis.certify(plant, model, automaton, config, result, seed=0)
    variables = synthesis.decision_variables(automaton, config, plant.n, model.p)
    lp = synthesis.assemble_lp(plant, model, automaton, config, variables)
    nnz = sum(int(np.count_nonzero(coeffs)) for coeffs, _, _ in lp.constraints)

    spans = [span.name for span in tracer.spans]
    for name in ("synthesis.decision_variables", "synthesis.assemble_lp",
                 "lp_solver.solve", "synthesis.unpack", "synthesis.row_gains"):
        assert name in spans
    (lp_span,) = [span for span in tracer.spans if span.name == "synthesis.assemble_lp"]
    assert lp_span.attrs == {"rows": len(lp.constraints), "cols": lp.variable_count,
                             "nnz": nnz}
    layers = metrics.pass_layers(tracer.spans)
    assert layers["synthesis.lp_rows"] == len(lp.constraints) > 0
    assert layers["synthesis.lp_cols"] == lp.variable_count
    assert layers["synthesis.lp_nnz"] == nnz
    assert layers["synthesis.decision_vars"] == variables.count
    assert layers["lp_solver.solve_calls"] == 1


def test_traced_certify_reports_the_operator_norms(nominal_setup, nominal_synthesis):
    """certify builds both sampled operators in one `factor_operators` call and
    measures each; `synthesis.operator_norms_s` sums the two norm spans."""
    plant, model, automaton, config = nominal_setup
    result, _ = nominal_synthesis
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        with tracer.span("bench.certify", kind="certify", label="nominal"):
            synthesis.certify(plant, model, automaton, config, result, seed=0)
    (certify_span,) = [i for i, span in enumerate(tracer.spans)
                       if span.name == "synthesis.certify"]
    for name in ("synthesis.factor_operators", "operator_core.induced_norm"):
        assert [span.parent for span in tracer.spans if span.name == name] \
            == [certify_span] * (2 if name == "operator_core.induced_norm" else 1)
    layers = metrics.pass_layers(tracer.spans)
    assert layers["synthesis.operator_norms_s"] > 0.0
    assert layers["operator_core.induced_norm_s"] > 0.0


def test_stress_zero_pad_keeps_the_fir_surface(perfbench_workloads, stress_state):
    """`_zero_pad` extends the frozen N=5 design to 10 lags with zero taps."""
    frozen = cli.load_bundle(str(PERFBENCH / "data" / perfbench_workloads.SWITCHING_BUNDLE))[1]
    for name in ("Q", "Z", "T"):
        fir, padded = getattr(frozen, name), getattr(stress_state.padded, name)
        assert fir.fir_length == 5 and padded.fir_length == 10
        assert padded.taps.shape == (len(fir.histories()), 10, fir.out_dim, fir.in_dim)
        assert padded.histories() == fir.histories()
        assert np.array_equal(padded.taps[:, :5], fir.taps)
        assert not np.any(padded.taps[:, 5:])
