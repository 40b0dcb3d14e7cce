"""Synthesis, certification and stress-testing of DoS-resilient state estimators.

Measurement channels of a linear plant can be dropped by an attacker; the
worst-case peak estimation-error design over all admissible drop
sequences reduces to a linear program over FIR switching operator
factors.  This package provides finite-horizon operators and their
peak-to-peak gain, the switching model, the LP reduction and solver, a
time-domain harness, and a CLI.
"""
from .operator_core import Signal, TruncatedOperator, apply, induced_norm
from .switched_model import (ChannelPlant, SwitchedOutputModel, SwitchingAutomaton,
                             SwitchingFIR, broadcast_taps, build_modes, history_array,
                             instantiate)
from .lp_solver import LinearProgram, LpNumericalError, LpSolution, format_lp, solve
from .synthesis import (SynthesisConfig, SynthesisInfeasibleError, SynthesisResult,
                        assemble_lp, certify, decision_variables, factor_operators,
                        row_gains, synthesize)
from .simulate import (Scenario, Trace, attack_search, make_trace, run_estimator,
                       run_fir_estimator, run_glo, simulate_plant, worst_case_inputs)

__version__ = "0.1.0"
