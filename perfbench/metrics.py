"""Metric names, units and their computation from timed and traced passes.

End-to-end metrics come from untraced passes.  Per-layer metrics come from
the traced passes of a `--trace 1` run, except the per-kind operation times
and the tails (`certify_s`, `synth_s`, `attack_*_s`, `*_tail`), which that
run takes from its untraced passes.
Times are medians over a run's passes (or set-ups), in reference seconds
(wall seconds scaled by the machine-speed probe of speed.py), except
`pass_wall_s` and `setup_wall_s`, which are the unscaled wall times.
Counts are per pass and must repeat exactly.
"""
from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import LAYERS

# Every end-to-end metric is non-zero on every workload.  The wall times
# are per-layer metrics: on this benchmark's shared host they drift between
# runs by more than any bound allows, the scaled times do not (see speed.py).  The times of
# single operation kinds are per-layer metrics: synth and attack are 0 on
# some workloads, and certify, under a second per pass on demo-*, varies
# from run to run by more than any bound allows.  So do the tails: with
# fewer than eleven passes a run's tail is its slowest pass.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

# Operation kinds, as the workloads name them.
KINDS = ("synth", "certify", "attack_exhaustive", "attack_greedy")

PER_LAYER = {
    "pass_s_tail": "s",
    "pass_wall_s": "s",
    "setup_wall_s": "s",
    "probe.kernel_us": "us",
    "probe.overhead_frac": "ratio",
    "certify_s": "s",
    "certify_s_tail": "s",
    "synth_s": "s",
    "synth_s_tail": "s",
    "attack_exhaustive_s": "s",
    "attack_exhaustive_s_tail": "s",
    "attack_greedy_s": "s",
    "attack_greedy_s_tail": "s",
    "failed_frac": "ratio",
    "lp_solver.solve_s": "s",
    "lp_solver.solve_calls": "count",
    "lp_solver.solve_share_of_synth": "ratio",
    "synthesis.lp_rows": "count",
    "synthesis.lp_cols": "count",
    "synthesis.lp_nnz": "count",
    "synthesis.lp_density": "ratio",
    "synthesis.build_rows_s": "s",
    "synthesis.assemble_s": "s",
    "synthesis.evaluate_rows_s": "s",
    "synthesis.rows": "count",
    "synthesis.decision_vars": "count",
    "synthesis.rows_share_of_certify": "ratio",
    "synthesis.operator_norms_s": "s",
    "synthesis.unpack_s": "s",
    "switched_model.windows": "count",
    "switched_model.enumerate_histories_s": "s",
    "switched_model.instantiate_s": "s",
    "switched_model.instantiate_calls": "count",
    "operator_core.compose_s": "s",
    "operator_core.compose_calls": "count",
    "operator_core.invert_s": "s",
    "operator_core.resolvent_s": "s",
    "operator_core.invert_resolvent_blind_frac": "ratio",
    "operator_core.induced_norm_s": "s",
    "simulate.error_operator_s": "s",
    "simulate.error_operator_calls": "count",
    "simulate.worst_case_inputs_s": "s",
    "simulate.sequences": "count",
    "simulate.per_sequence_ms": "ms",
    "simulate.greedy_nodes": "count",
    "cli.parse_problem_s": "s",
    "cli.bundle_load_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}

_NORMS_IN_CERTIFY = ("synthesis.residual_operator", "synthesis.performance_operator",
                     "operator_core.induced_norm")


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    A run of ten samples or fewer has no such percentile; its tail is the
    largest sample, labelled "max".
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f}"
    return ordered[-1], "max"


def _pass_times(passes) -> list[float]:
    return [sum(p["kinds"].values()) for p in passes]


def end_to_end(setup_times, passes, peak_rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(_pass_times(passes)),
        "peak_rss_mb": peak_rss_mb,
    }


def pass_and_kind_times(passes) -> dict:
    """Tail of the pass time, and median and tail of each operation kind."""
    out = {"pass_s_tail": tail(_pass_times(passes))[0]}
    for kind in KINDS:
        times = [p["kinds"].get(kind, 0.0) for p in passes]
        out[f"{kind}_s"] = statistics.median(times)
        out[f"{kind}_s_tail"] = tail(times)[0]
    return out


def pass_layers(spans) -> dict:
    """Per-layer values of one traced pass."""
    total = defaultdict(float)
    calls = Counter()
    attrs = defaultdict(lambda: defaultdict(int))
    by_root_kind = defaultdict(Counter)
    root_kind_time = defaultdict(float)
    blind_time = 0.0
    norms_in_certify = 0.0
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        if s.attrs and s.parent is not None:
            for key, value in s.attrs.items():
                attrs[s.name][key] += value
        root = spans[s.root].attrs
        if s.parent is None:
            root_kind_time[root["kind"]] += s.duration
            continue
        by_root_kind[root["kind"]][s.name] += 1
        if s.name in ("operator_core.invert", "operator_core.resolvent_of_state") \
                and root["label"] == "blind":
            blind_time += s.duration
        if s.name in _NORMS_IN_CERTIFY and spans[s.parent].name == "synthesis.certify":
            norms_in_certify += s.duration

    lp = attrs["synthesis.assemble_lp"]
    lp_cells = sum(sp.attrs["rows"] * sp.attrs["cols"] for sp in spans
                   if sp.name == "synthesis.assemble_lp" and sp.attrs)
    build_rows = total["synthesis.build_residual_rows"] + total["synthesis.build_performance_rows"]
    rows_in_certify = sum(s.duration for s in spans
                          if spans[s.root].attrs["kind"] == "certify"
                          and s.name in ("synthesis.build_residual_rows",
                                         "synthesis.build_performance_rows",
                                         "synthesis.evaluate_rows"))
    inv_res = total["operator_core.invert"] + total["operator_core.resolvent_of_state"]
    out = {
        "lp_solver.solve_s": total["lp_solver.solve"],
        "lp_solver.solve_calls": calls["lp_solver.solve"],
        "lp_solver.solve_share_of_synth": _share(total["lp_solver.solve"],
                                                 root_kind_time["synth"]),
        "synthesis.lp_rows": lp["rows"],
        "synthesis.lp_cols": lp["cols"],
        "synthesis.lp_nnz": lp["nnz"],
        "synthesis.lp_density": _share(lp["nnz"], lp_cells),
        "synthesis.build_rows_s": build_rows,
        "synthesis.assemble_s": total["synthesis.assemble_lp"],
        "synthesis.evaluate_rows_s": total["synthesis.evaluate_rows"],
        "synthesis.rows": (attrs["synthesis.build_residual_rows"]["rows"]
                           + attrs["synthesis.build_performance_rows"]["rows"]),
        "synthesis.decision_vars": attrs["synthesis.decision_variables"]["vars"],
        "synthesis.rows_share_of_certify": _share(rows_in_certify, root_kind_time["certify"]),
        "synthesis.operator_norms_s": norms_in_certify,
        "synthesis.unpack_s": total["synthesis.unpack"],
        "switched_model.windows": attrs["switched_model.enumerate_histories"]["windows"],
        "switched_model.enumerate_histories_s": total["switched_model.enumerate_histories"],
        "switched_model.instantiate_s": total["switched_model.instantiate"],
        "switched_model.instantiate_calls": calls["switched_model.instantiate"],
        "operator_core.compose_s": total["operator_core.compose"],
        "operator_core.compose_calls": calls["operator_core.compose"],
        "operator_core.invert_s": total["operator_core.invert"],
        "operator_core.resolvent_s": total["operator_core.resolvent_of_state"],
        "operator_core.invert_resolvent_blind_frac": _share(blind_time, inv_res),
        "operator_core.induced_norm_s": total["operator_core.induced_norm"],
        "simulate.error_operator_s": total["simulate.error_operator"],
        "simulate.error_operator_calls": calls["simulate.error_operator"],
        "simulate.worst_case_inputs_s": total["simulate.worst_case_inputs"],
        "simulate.sequences": by_root_kind["attack_exhaustive"]["simulate.worst_case_inputs"],
        "simulate.greedy_nodes": by_root_kind["attack_greedy"]["simulate.worst_case_inputs"],
        **{f"{layer}.self_s": _self_time(spans, layer) for layer in LAYERS if layer != "cli"},
        "trace.spans": len(spans),
    }
    return out


def scaled(values: dict, factor: float) -> dict:
    """Times of `values` multiplied by `factor`; counts and ratios as they are."""
    return {name: value * factor if PER_LAYER[name] == "s" else value
            for name, value in values.items()}


def setup_layers(spans) -> dict:
    """cli times of one traced set-up; cli runs only there."""
    total = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
    return {"cli.parse_problem_s": total["cli.parse_problem"],
            "cli.bundle_load_s": total["cli.load_bundle"],
            "cli.self_s": _self_time(spans, "cli")}


def _self_time(spans, layer: str) -> float:
    """Time inside the layer's spans not covered by their child spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return sum((s.duration - child_time[i] for i, s in enumerate(spans)
                if s.name.split(".")[0] == layer), 0.0)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def combine(samples: list[dict]) -> tuple[dict, list[str]]:
    """Median of times and shares over samples; counts must agree exactly."""
    out, mismatched = {}, []
    for name in samples[0]:
        values = [s[name] for s in samples]
        if PER_LAYER[name] == "count":
            if len(set(values)) != 1:
                mismatched.append(f"{name}: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, mismatched
