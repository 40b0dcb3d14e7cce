import sys
import time
from pathlib import Path

import pytest

from switchguard import demo
from switchguard.cli import parse_problem
from switchguard.synthesis import synthesize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def switching_setup():
    """(plant, model, automaton, config) of the demo problem, parsed from its config."""
    return parse_problem(demo.demo_config_dict())[:4]


@pytest.fixture(scope="session")
def nominal_setup():
    """The single-mode demo problem: both channels always delivered."""
    return parse_problem(demo.nominal_config_dict())[:4]


@pytest.fixture(scope="session")
def plant(switching_setup):
    return switching_setup[0]


@pytest.fixture(scope="session")
def nominal_synthesis(nominal_setup):
    """(result, elapsed seconds) for the single-mode reference problem."""
    plant, model, automaton, config = nominal_setup
    t0 = time.perf_counter()
    result = synthesize(plant, model, automaton, config)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def switching_synthesis(switching_setup):
    """(result, elapsed seconds) for the two-mode reference problem."""
    plant, model, automaton, config = switching_setup
    t0 = time.perf_counter()
    result = synthesize(plant, model, automaton, config)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def perfbench_workloads():
    """The benchmark's workloads module, imported from perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    return workloads


@pytest.fixture(scope="session")
def stress_state(perfbench_workloads):
    """The `stress` workload's state: frozen designs, the padded N=10 design."""
    return perfbench_workloads._stress_setup(PERFBENCH / "data", 0)
