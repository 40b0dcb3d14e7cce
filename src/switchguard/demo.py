"""Bundled benchmark: unstable three-state plant, two channels, droppable sensor.

Channel 1 is reliable but noisy; channel 2 is accurate but can be dropped
by the attacker.  Known reference results for this problem: optimal peak
error gain 5.0275 with both channels always delivered (single-mode design,
two taps) and 32.5 under unrestricted dropping of channel 2 (switching
design, five taps).  Reference impulse-response tables are reproduced for
informational diffs; table 1 is matched against the nominal mode and
table 2 against the attack mode (the published labeling does not name the
modes, so that pairing is an assumption this package records in output).
The problem exists only as the two config payloads below; `cli.parse_problem`
builds its model objects, as for any config file.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "REFERENCE_NOMINAL_COST",
    "REFERENCE_SWITCHING_COST",
    "REFERENCE_NOMINAL_TAPS",
    "REFERENCE_SWITCHING_TAPS",
    "demo_config_dict",
    "nominal_config_dict",
]

REFERENCE_NOMINAL_COST = 5.0275
REFERENCE_SWITCHING_COST = 32.5

# two-tap single-mode estimator achieving the nominal reference cost
REFERENCE_NOMINAL_TAPS = [
    np.array([[0.0, 0.75], [0.74, -0.065], [-0.126, -0.031]]),
    np.array([[-1.25, -2.0], [0.195, 0.0], [-0.906, -1.0]]),
]

# five-tap switching estimator; key 0 = nominal mode, 1 = attack mode
REFERENCE_SWITCHING_TAPS = {
    0: [
        np.array([[0.24, 0.44], [0.37, -0.17], [0.06, -0.17]]),
        np.array([[0.25, 0.0], [0.39, 0.0], [0.94, 0.0]]),
        np.array([[0.02, 0.0], [0.14, 0.0], [0.07, 0.0]]),
        np.array([[-0.21, 0.0], [0.01, 0.0], [-0.3, 0.0]]),
        np.array([[-2.1, 0.0], [-0.06, 0.0], [-0.93, 0.0]]),
    ],
    1: [
        np.array([[-1.5, 0.0], [0.98, 0.0], [0.66, 0.0]]),
        np.array([[3.75, 0.0], [0.07, 0.0], [0.61, 0.0]]),
        np.array([[0.0, 0.0], [-0.06, 0.0], [-0.05, 0.0]]),
        np.array([[0.0, 0.0], [-0.03, 0.0], [-0.45, 0.0]]),
        np.array([[-2.25, 0.0], [0.05, 0.0], [-0.77, 0.0]]),
    ],
}


def demo_config_dict() -> dict:
    """Switching problem as a config file payload (attacker may drop channel 2).

    Every plant entry is a float: bundles echo the config, and JSON writes
    an int without a decimal point.
    """
    return {
        "plant": {
            "A": [[1.0, 0.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, 0.0, 2.0]],
            # disturbances enter through the measurements only
            "B": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "channels": [{"C": [[0.0, 1.0, 0.0]], "D": [[2.0, 0.0]]},
                         {"C": [[1.0, -1.0, -2.0]], "D": [[0.0, 0.01]]}],
            "x0_bound": 1.0,
        },
        # mode 0 delivers both channels, mode 1 drops channel 2
        "attack": {"patterns": [[1, 2], [1]], "automaton": "complete", "padding_mode": 0},
        "synthesis": {"M": 1, "N": 5, "mode": "exact", "eps_bar": 0.0,
                      "verify_horizon": 30, "verify_samples": 20},
        "seed": 0,
    }


def nominal_config_dict() -> dict:
    """Single-mode problem: both channels always delivered."""
    cfg = demo_config_dict()
    cfg["attack"]["patterns"] = [[1, 2]]
    cfg["synthesis"]["N"] = 2
    return cfg
