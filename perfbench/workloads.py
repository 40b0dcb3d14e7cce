"""The benchmark's workloads and the correctness gate of each operation.

Every workload is a closed loop with one caller: a pass issues its
operations one after another through the public API, the same calls
`switchguard synth`, `certify` and `attack` make.  `setup` builds the
inputs (configs through `cli.parse_problem`, frozen designs through
`cli.load_bundle`); the workload seed only becomes `certify`'s sampling
seed.  Each operation's result is checked by a gate; a gate returns the
list of violations, empty when the result is correct.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from switchguard import cli, demo, simulate, switched_model, synthesis

SWITCHING_BUNDLE = "switching_m1n5.json"
NOMINAL_BUNDLE = "nominal_m1n2.json"
EXPECTED = "expected.json"

GAMMA_REL_TOL = 1e-9
EXACT_EPS_TOL = 1e-7
ATTACK_REL_TOL = 1e-12

# (name, design, strategy, horizon) of the attack searches in `stress`.
ATTACKS = (
    ("resilient_exhaustive_h10", "resilient", "exhaustive", 10),
    ("blind_exhaustive_h10", "blind", "exhaustive", 10),
    ("resilient_greedy_h60", "resilient", "greedy", 60),
    ("blind_greedy_h30", "blind", "greedy", 30),
)
# FIR length the frozen N=5 switching design is zero-padded to for `certify`
# in `stress`: 2^10 = 1024 windows, same gamma, zero residual.
STRESS_CERTIFY_N = 10
STRESS_REFERENCE_GAMMA = 32.5


@dataclass(frozen=True)
class Case:
    """One synthesis problem of the paper's demo and its reference gamma_bar."""

    name: str
    nominal: bool
    memory: int
    fir_length: int
    mode: str
    eps_bar: float
    gamma: float

    def config(self) -> dict:
        cfg = demo.nominal_config_dict() if self.nominal else demo.demo_config_dict()
        cfg["synthesis"].update({"M": self.memory, "N": self.fir_length,
                                 "mode": self.mode, "eps_bar": self.eps_bar})
        return cfg


DEMO_EXACT = (
    Case("nominal M=1 N=2", True, 1, 2, "exact", 0.0, 5.0275),
    Case("switching M=1 N=5", False, 1, 5, "exact", 0.0, 32.5),
    Case("switching M=2 N=4", False, 2, 4, "exact", 0.0, 36.0),
)
DEMO_RELAXED = (
    Case("relaxed M=1 N=5", False, 1, 5, "relaxed", 0.1, 29.25),
    Case("relaxed M=1 N=4", False, 1, 4, "relaxed", 0.1, 32.4),
)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), np.finfo(float).tiny)


def check_synth(case: Case, result) -> list[str]:
    bad = []
    if not _rel(result.gamma_bar, case.gamma) <= GAMMA_REL_TOL:
        bad.append(f"gamma_bar {result.gamma_bar!r} != {case.gamma}")
    return bad


def check_certify(result, syncfg, report: dict) -> list[str]:
    """Independent re-evaluation must reproduce gamma, eps and the bound."""
    bad = []
    gamma, rows = result.gamma_bar, report["gamma_rows"]
    if not _rel(rows, gamma) <= GAMMA_REL_TOL:
        bad.append(f"gamma_rows {rows!r} != gamma_bar {gamma!r}")
    if not report["max_sampled_performance_norm"] <= rows * (1.0 + GAMMA_REL_TOL):
        bad.append(f"sampled norm {report['max_sampled_performance_norm']!r} > {rows!r}")
    eps = report["eps_rows"]
    if syncfg.mode == "exact":
        if not eps <= EXACT_EPS_TOL:
            bad.append(f"exact-mode eps_rows {eps!r} > {EXACT_EPS_TOL}")
    else:
        if not eps <= syncfg.eps_bar * (1.0 + GAMMA_REL_TOL):
            bad.append(f"eps_rows {eps!r} > eps_bar {syncfg.eps_bar}")
        bound = gamma + eps * gamma / (1.0 - eps)
        if not _rel(result.certified_bound, bound) <= GAMMA_REL_TOL:
            bad.append(f"certified bound {result.certified_bound!r} != {bound!r}")
    return bad


def check_attack(expected: dict, bound, found) -> list[str]:
    sigma, value = found
    bad = []
    if "".join(map(str, sigma)) != expected["sigma"]:
        bad.append(f"sigma* {''.join(map(str, sigma))} != {expected['sigma']}")
    if not _rel(value, expected["value"]) <= ATTACK_REL_TOL:
        bad.append(f"value {value!r} != {expected['value']!r}")
    if bound is not None and not value <= bound:
        bad.append(f"value {value!r} exceeds the certified bound {bound!r}")
    return bad


# An operation runner: op(kind, label, check, fn, *args, **kwargs) calls
# fn(*args, **kwargs), times it, gates the result with check and returns
# the result, or None when the call raised or the gate failed.
Op = Callable[..., object]


@dataclass(frozen=True)
class Workload:
    why: str
    setup: Callable[[Path, int], object]
    run_pass: Callable[[object, Op], None]


@dataclass(frozen=True)
class DemoState:
    problems: tuple  # (Case, (plant, model, automaton, syncfg))
    seed: int


def _demo_setup(cases):
    def setup(data_dir: Path, seed: int) -> DemoState:
        problems = []
        for case in cases:
            plant, model, automaton, syncfg, _ = cli.parse_problem(case.config())
            problems.append((case, (plant, model, automaton, syncfg)))
        return DemoState(tuple(problems), seed)
    return setup


def _demo_pass(state: DemoState, op: Op) -> None:
    for case, problem in state.problems:
        result = op("synth", case.name, lambda r, c=case: check_synth(c, r),
                    synthesis.synthesize, *problem)
        if result is None:
            continue
        op("certify", case.name, lambda rep, r=result, s=problem[3]: check_certify(r, s, rep),
           synthesis.certify, *problem, result, seed=state.seed)


def _zero_pad(fir, fir_length: int):
    coeffs = dict(fir.coeffs)
    zero = np.zeros((fir.out_dim, fir.in_dim))
    for hist in fir.histories():
        for lag in range(fir.fir_length, fir_length):
            coeffs[(hist, lag)] = zero
    return dataclasses.replace(fir, fir_length=fir_length, coeffs=coeffs)


@dataclass(frozen=True)
class StressState:
    problem: tuple  # (plant, model, automaton)
    padded: object  # resilient design zero-padded to STRESS_CERTIFY_N taps
    padded_config: object
    designs: dict
    bound: float
    expected: dict
    seed: int


def _stress_setup(data_dir: Path, seed: int) -> StressState:
    _, resilient, plant, model, automaton, syncfg, _ = cli.load_bundle(
        str(data_dir / SWITCHING_BUNDLE))
    nominal = cli.load_bundle(str(data_dir / NOMINAL_BUNDLE))[1]
    with open(data_dir / EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)["attacks"]
    padded = dataclasses.replace(resilient, Q=_zero_pad(resilient.Q, STRESS_CERTIFY_N),
                                 Z=_zero_pad(resilient.Z, STRESS_CERTIFY_N),
                                 T=_zero_pad(resilient.T, STRESS_CERTIFY_N))
    designs = {"resilient": resilient,
               "blind": switched_model.broadcast_taps(nominal.T, automaton)}
    return StressState((plant, model, automaton), padded,
                       dataclasses.replace(syncfg, fir_length=STRESS_CERTIFY_N),
                       designs, resilient.certified_bound, expected, seed)


def _check_stress_certify(state: StressState, report: dict) -> list[str]:
    bad = check_certify(state.padded, state.padded_config, report)
    if not _rel(state.padded.gamma_bar, STRESS_REFERENCE_GAMMA) <= GAMMA_REL_TOL:
        bad.append(f"frozen gamma_bar {state.padded.gamma_bar!r} != {STRESS_REFERENCE_GAMMA}")
    return bad


def _stress_pass(state: StressState, op: Op) -> None:
    plant, model, automaton = state.problem
    op("certify", "resilient", lambda rep: _check_stress_certify(state, rep),
       synthesis.certify, plant, model, automaton, state.padded_config, state.padded,
       seed=state.seed)
    for name, design, strategy, horizon in ATTACKS:
        bound = state.bound if design == "resilient" else None
        op(f"attack_{strategy}", design,
           lambda found, e=state.expected[name], b=bound: check_attack(e, b, found),
           simulate.attack_search, plant, model, state.designs[design], automaton,
           horizon, strategy=strategy)


WORKLOADS = {
    "demo-exact": Workload(
        "the dense simplex is most of synth_s: three exact-mode LPs of the demo "
        "(nominal, switching N=5, switching M=2 N=4); row building is about 2%",
        _demo_setup(DEMO_EXACT), _demo_pass),
    "demo-relaxed": Workload(
        "same LP solver on inequality-heavy relaxed LPs (eps_bar=0.1, N=5 and N=4), "
        "another phase-1 shape; checks the bound gamma+eps*gamma/(1-eps)",
        _demo_setup(DEMO_RELAXED), _demo_pass),
    "stress": Workload(
        "no LP call: certify over 1024 windows (row building, evaluate_rows) and "
        "exhaustive/greedy attack search on frozen resilient and blind designs",
        _stress_setup, _stress_pass),
}
