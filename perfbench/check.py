"""Self-check and run-to-run spread of the benchmark.

Usage (from the repository root):

    python3 perfbench/check.py self
    python3 perfbench/check.py spread --workload stress --seeds 1-10 [--trace 0]
                                      [--out summary.json]

`self` runs every workload once untraced and twice traced (two seeds) with
a one-second run length, so one pass per run (two when traced).  It
requires the correctness gate to pass, the emitted metric names and units
to match BENCHMARK.json, the workload list to match perfbench/workloads.py
and every count metric to repeat exactly across the two traced runs, and
it prints every metric of every workload.

`spread` runs one workload once per seed for `run_seconds`, with the
command of BENCHMARK.json, and prints for each metric the median over the
runs and the distance between the first and third quartile as a share of
the median, next to the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
SELF_CHECK_SECONDS = 1  # shorter than any pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[str, dict]:
    """Run BENCHMARK.json's command from the repository root; return its env and result lines."""
    cmd = load_spec()["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    env = next((line for line in lines if line.startswith("# env ")), "")
    return env[len("# env "):], json.loads(lines[-1])


def _expect(ok: bool, message: str, problems: list) -> None:
    if not ok:
        problems.append(message)
        print(f"  FAIL {message}")


def self_check() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = load_spec()
    problems: list[str] = []
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    _expect(listed == {name: w.why for name, w in WORKLOADS.items()},
            "BENCHMARK.json workloads differ from perfbench/workloads.py", problems)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        traced_runs = []
        for trace, seed in ((0, 1), (1, 1), (1, 2)):
            print(f"{workload} trace={trace} seed={seed}")
            _, result = run_once(workload, seed, SELF_CHECK_SECONDS, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _expect(got == wanted[trace],
                    f"{workload} trace={trace}: metric names or units differ from "
                    "BENCHMARK.json", problems)
            _expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                    f"{workload} trace={trace} seed={seed}: correctness gate failed", problems)
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                _expect(not zero, f"{workload}: end-to-end metrics read 0: {zero}", problems)
            else:
                traced_runs.append(result["metrics"])
        counts = [n for n, unit in wanted[1].items() if unit == "count"]
        differ = [n for n in counts if traced_runs[0][n]["value"] != traced_runs[1][n]["value"]]
        _expect(not differ, f"{workload}: counts differ between seeds: {differ}", problems)
    print("self-check " + ("passed" if not problems else f"FAILED ({len(problems)} problems)"))
    return 0 if not problems else 1


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(workload: str, seeds: list[int], trace: int, out) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = []
    for seed in seeds:
        print(f"{workload} seed={seed} trace={trace}")
        env, result = run_once(workload, seed, seconds, trace)
        results.append(result)
    summary = {"workload": workload, "seeds": seeds, "trace": trace, "seconds": seconds,
               "env": env, "correct": all(r["correct"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "attempted": sum(r["attempted"] for r in results), "metrics": {}}
    print(f"{'metric':42s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        summary["metrics"][name] = {"median": median, "iqr_share": share, "bound": bound,
                                    "unit": results[0]["metrics"][name]["unit"],
                                    "values": values}
        flag = "" if bound is None or share <= bound / 3 else (" OVER" if share > bound
                                                               else " >bound/3")
        print(f"{name:42s} {median:12.6g} {share:10.4f} {bound if bound is not None else '':>6}"
              f"{flag}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("self", help="run every workload once and check the contract")
    p_spread = sub.add_parser("spread", help="run one workload over several seeds")
    p_spread.add_argument("--workload", required=True)
    p_spread.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p_spread.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_spread.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)
    if args.command == "self":
        return self_check()
    return spread(args.workload, _seeds(args.seeds), args.trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
