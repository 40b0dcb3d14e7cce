"""The names perfbench's traced passes wrap still exist and report what they did.

perfbench/tracing.py wraps the package's functions by name and records
the LP dimensions from the result of `synthesis.assemble_lp`; a rename in
the package would leave a traced benchmark run with silent zeros.
"""
import sys
from pathlib import Path

import numpy as np

from switchguard import synthesis

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
    """certify's sampled norms are the spans `synthesis.operator_norms_s` sums."""
    plant, model, automaton, config = nominal_setup
    result, _ = nominal_synthesis
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        with tracer.span("bench.certify", kind="certify", label="nominal"):
            synthesis.certify(plant, model, automaton, config, result, seed=0)
    (certify_span,) = [i for i, span in enumerate(tracer.spans)
                       if span.name == "synthesis.certify"]
    for name in ("synthesis.residual_operator", "synthesis.performance_operator",
                 "operator_core.induced_norm"):
        assert [span.parent for span in tracer.spans if span.name == name] \
            == [certify_span] * (2 if name == "operator_core.induced_norm" else 1)
    layers = metrics.pass_layers(tracer.spans)
    assert layers["synthesis.operator_norms_s"] > 0.0
    assert layers["operator_core.induced_norm_s"] > 0.0
