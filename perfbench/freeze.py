"""Regenerate the frozen inputs of the `stress` workload.

Usage (from the repository root):

    python3 perfbench/freeze.py

Writes into perfbench/data/:

- switching_m1n5.json: the demo switching design (M=1, N=5, exact mode),
- nominal_m1n2.json: the demo nominal design (M=1, N=2, exact mode),
- expected.json: the attack-search results on those two frozen designs.

Both bundles use the same format as `switchguard synth --out`.  The
`stress` workload loads them instead of synthesizing, so its certify and
attack inputs do not depend on which optimal vertex an LP backend returns.
Regenerate only on purpose: expected.json pins sigma* and the attack values
that every benchmark run is gated on.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
sys.path.insert(0, str(HERE.parent / "src"))

from switchguard import cli, demo, simulate, switched_model, synthesis  # noqa: E402

import workloads  # noqa: E402


def _write(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _freeze_design(config: dict, name: str) -> None:
    plant, model, automaton, syncfg, seed = cli.parse_problem(config)
    result = synthesis.synthesize(plant, model, automaton, syncfg)
    report = synthesis.certify(plant, model, automaton, syncfg, result, seed=seed)
    _write(DATA / name, cli.bundle_from_result(config, result, report))
    print(f"{name}: gamma_bar={result.gamma_bar!r}")


def main() -> int:
    DATA.mkdir(exist_ok=True)
    _freeze_design(demo.demo_config_dict(), workloads.SWITCHING_BUNDLE)
    _freeze_design(demo.nominal_config_dict(), workloads.NOMINAL_BUNDLE)

    _, resilient, plant, model, automaton, _, _ = cli.load_bundle(
        str(DATA / workloads.SWITCHING_BUNDLE))
    nominal = cli.load_bundle(str(DATA / workloads.NOMINAL_BUNDLE))[1]
    blind = switched_model.broadcast_taps(nominal.T, automaton)
    designs = {"resilient": resilient, "blind": blind}
    attacks = {}
    for name, design, strategy, horizon in workloads.ATTACKS:
        sigma, value = simulate.attack_search(plant, model, designs[design], automaton,
                                              horizon, strategy=strategy)
        attacks[name] = {"sigma": "".join(map(str, sigma)), "value": value}
        print(f"{name}: sigma*={attacks[name]['sigma']} value={value!r}")
    _write(DATA / workloads.EXPECTED, {"attacks": attacks})
    return 0


if __name__ == "__main__":
    sys.exit(main())
