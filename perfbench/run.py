"""switchguard benchmark: one workload, one process, one closed-loop caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo-exact --seed 1 --seconds 30 --trace 0

The run sets the workload up several times (set-up time is the median)
and repeats passes of the workload until the next pass would end after
`--seconds`.  Times are reported in reference seconds: scaled by the
machine-speed probe of speed.py, which is timed while the run goes on.
Every operation is checked by the workload's correctness gate.  `--trace 0` reports the end-to-end metrics from untraced passes;
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The package is imported from `src/` of the checkout
this script sits in; without it the run exits with a non-zero code and
prints no result.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
SETUP_REPEATS = 4  # at the start and after each pass


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import switchguard
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import switchguard from {SRC}: {exc}") from None
    if Path(switchguard.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: switchguard was imported from {switchguard.__file__}, "
                         f"not from {SRC}")


def _openblas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


class Runner:
    """Times, optionally traces and gates the operations of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.intervals: list[tuple[str, float, float]] = []  # (kind, start, end)

    def op(self, kind, label, check, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                with self.tracer.span(f"bench.{kind}", kind=kind, label=label):
                    result = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.intervals.append((kind, start, time.perf_counter()))
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{kind} {label}: {type(exc).__name__}: {exc}")
            return None
        self.intervals.append((kind, start, time.perf_counter()))
        problems = check(result)
        if problems:
            self.failures.append(f"{kind} {label}: " + "; ".join(problems))
            return None
        return result

    def timed(self, probe) -> dict:
        """The pass's wall time and its per-kind times in reference seconds.

        The probe's own time is taken out of the operations it interrupted.
        """
        net = defaultdict(float)
        for kind, start, end in self.intervals:
            net[kind] += end - start - probe.time_in(start, end)
        factor = probe.scale(self.intervals[0][1], self.intervals[-1][2])
        return {"kinds": {kind: t * factor for kind, t in net.items()},
                "wall": sum(net.values()), "factor": factor,
                "probe": probe.time_in(self.intervals[0][1], self.intervals[-1][2])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import numpy as np

    import metrics
    import speed
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    env = environment(np.__version__)
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workload.why}")

    probe = speed.Probe()
    setup_times, setup_wall, setup_samples = [], [], []

    def set_up_batch():
        """SETUP_REPEATS timed set-ups between two probe bursts.

        The traced run also records their cli spans.
        """
        # One collection before the batch, none between its set-ups: a full
        # collection walks every object and leaves the caches cold, and set-up
        # time would then measure mostly the cold caches.
        gc.collect()
        probe.burst()
        walls, layers = [], []
        first = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            tracer = tracing.Tracer() if traced else None
            start = time.perf_counter()
            if tracer is None:
                state = workload.setup(DATA, args.seed)
            else:
                with tracing.instrumented(tracer), tracer.span("bench.setup", kind="setup",
                                                               label="setup"):
                    state = workload.setup(DATA, args.seed)
                layers.append(metrics.setup_layers(tracer.spans))
            walls.append(time.perf_counter() - start)
        last = time.perf_counter()
        probe.burst()
        factor = probe.scale(first, last)
        setup_wall.extend(walls)
        setup_times.extend(t * factor for t in walls)
        setup_samples.extend({name: t * factor for name, t in sample.items()}
                             for sample in layers)
        return state

    # Set-up takes milliseconds, so it is repeated after every pass as well:
    # its samples then span the run instead of one burst of machine noise.
    state = set_up_batch()

    # passes: closed loop, one caller, until the next pass would overrun
    untraced, traced_passes = [], []
    runners = []
    deadline = time.perf_counter() + args.seconds
    while True:
        tracer = tracing.Tracer() if traced and len(untraced) > len(traced_passes) else None
        runner = Runner(tracer)
        runners.append(runner)
        gc.collect()
        with probe.sampling():
            if tracer is None:
                workload.run_pass(state, runner.op)
            else:
                with tracing.instrumented(tracer):
                    workload.run_pass(state, runner.op)
        timed = runner.timed(probe)
        if tracer is None:
            untraced.append(timed)
        else:
            timed["layers"] = metrics.scaled(metrics.pass_layers(tracer.spans), timed["factor"])
            traced_passes.append(timed)
        set_up_batch()
        next_kind = traced_passes if traced and len(untraced) > len(traced_passes) else untraced
        estimate = (next_kind or untraced)[-1]["wall"]
        if (traced_passes or not traced) and time.perf_counter() + estimate > deadline:
            break

    attempted = sum(r.attempted for r in runners)
    failures = [f for r in runners for f in r.failures]
    for failure in failures:
        print(f"# FAILED {failure}")
    for kind in metrics.KINDS:
        times = [p["kinds"].get(kind, 0.0) for p in untraced]
        if any(times):
            value, label = metrics.tail(times)
            print(f"# {kind}: median {statistics.median(times):.4f} ref s, {label} {value:.4f} ref s "
                  f"over {len(times)} passes: " + " ".join(f"{t:.4f}" for t in times))

    if not traced:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(setup_times, untraced, peak_rss_mb)
        units = metrics.END_TO_END
        mismatched = []
    else:
        values, mismatched = metrics.combine([p["layers"] for p in traced_passes])
        setup_layers, _ = metrics.combine(setup_samples)
        values.update(setup_layers)
        values.update(metrics.pass_and_kind_times(untraced))
        sequences = values["simulate.sequences"]
        values["simulate.per_sequence_ms"] = (
            1000.0 * values["attack_exhaustive_s"] / sequences if sequences else 0.0)
        values["failed_frac"] = len(failures) / attempted
        plain = statistics.median(sum(p["kinds"].values()) for p in untraced)
        with_spans = statistics.median(sum(p["kinds"].values()) for p in traced_passes)
        values["trace.overhead_frac"] = (with_spans - plain) / plain
        values["pass_wall_s"] = statistics.median(p["wall"] for p in untraced)
        values["setup_wall_s"] = statistics.median(setup_wall)
        values["probe.kernel_us"] = 1e6 * probe.median_kernel_s()
        values["probe.overhead_frac"] = statistics.median(p["probe"] / p["wall"]
                                                          for p in untraced)
        units = metrics.PER_LAYER
        for mismatch in mismatched:
            print(f"# COUNT MISMATCH between passes: {mismatch}")

    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not failures and not mismatched,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
