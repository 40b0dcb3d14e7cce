"""Command line interface: validate, synth, norm, simulate, attack, example.

Configs and result bundles are JSON (matrices as row-major nested lists),
traces are CSV.  Exit codes: 0 ok, 2 input error, 3 infeasible,
4 numerical failure, such as a simulated error that is not finite.  All
commands are deterministic under a fixed seed.
The model constructors own the rules on config values and the defaults;
this module checks JSON types and names the field path of every error.
Attack sequences given by --sigma or a scenario file, and the all-padding
sequence `simulate` runs without either, must be admissible for the
config's automaton; --horizon must be positive, and must equal the length
of the --sigma or scenario sequence when it is given with one.  Horizons,
sequence lengths and --samples are at most `SEQUENCE_BUDGET` (2048), checked
before anything is built.  A flag
that would be ignored is an input error: --sigma with --scenario, and
--samples with --sigma.  So is a path that cannot be read or written; the
error names the path, or the flag that gave it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, demo
from . import operator_core as oc
from .lp_solver import LpNumericalError, format_lp
from .simulate import Scenario, attack_search, make_trace, worst_case_inputs
from .switched_model import (ChannelPlant, SwitchingAutomaton, SwitchingFIR, build_modes,
                             history_array)
from .synthesis import (EXACT_EPS, MODE_EXACT, SEQUENCE_BUDGET, SynthesisConfig,
                        SynthesisInfeasibleError, SynthesisResult, _lag0_margin,
                        _sampled_norms, certify, synthesize)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Schema or dimension problem, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------- config I/O

def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _section(value, path: str, keys: frozenset) -> dict:
    """The JSON object at `path`; each of its keys must be one of `keys`."""
    _expect(isinstance(value, dict), path, "expected a JSON object")
    if not value.keys() <= keys:
        key = next(key for key in value if key not in keys)
        raise ConfigError(key if path == "$" else f"{path}.{key}", "unknown field")
    return value


def _is_int(value) -> bool:
    """A JSON integer: true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, path: str) -> int:
    _expect(_is_int(value), path, "expected an integer")
    return value


def _number(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path,
            "expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(path, "number out of range") from None


def _matrix(value, path: str, finite: bool = True) -> np.ndarray:
    """A non-empty rectangular nested list of JSON numbers, as a float array;
    unless finite is False, every entry must be finite."""
    _expect(isinstance(value, list) and value and all(isinstance(r, list) for r in value),
            path, "expected a non-empty nested list (matrix)")
    width = len(value[0])
    _expect(all(len(r) == width for r in value), path, "rows have unequal lengths")
    kinds = [type(entry) for row in value for entry in row]
    if bool in kinds:
        i, j = divmod(kinds.index(bool), width)
        raise ConfigError(f"{path}[{i}][{j}]", "expected a number, not true or false")
    try:
        mat = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "matrix entries must be numbers") from None
    except OverflowError:
        raise ConfigError(path, "matrix entries out of range") from None
    # a Python loop is faster than a numpy reduction on config-sized matrices
    _expect(not finite or all(map(math.isfinite, mat.ravel().tolist())), path,
            "matrix entries must be finite")
    return mat


def _string(value, path: str) -> str:
    _expect(isinstance(value, str), path, "expected a string")
    return value


def _modes(value, path: str) -> list:
    _expect(isinstance(value, list) and value and all(map(_is_int, value)), path,
            "expected a non-empty list of mode indices")
    return value


def _allowed(value, path: str):
    return None if value == "complete" else _matrix(value, path) != 0.0


# Model field -> JSON key, where the two differ.
_JSON_KEYS = {"memory": "M", "fir_length": "N", "allowed": "automaton"}

# The keys each JSON object of a config or scenario may hold.
_CONFIG_KEYS = frozenset({"plant", "attack", "synthesis", "seed"})
_PLANT_KEYS = frozenset({"A", "B", "channels", "x0_bound"})
_CHANNEL_KEYS = frozenset({"C", "D"})
_ATTACK_KEYS = frozenset({"patterns", "automaton", "initial", "padding_mode"})
_SYNTHESIS_KEYS = frozenset({"M", "N", "mode", "eps_bar", "verify_horizon", "verify_samples"})
_SCENARIO_KEYS = frozenset({"sigma", "w", "x0", "x0_time"})


def _build(section: dict, path: str, make, *args, optional=None, **kwargs):
    """make(*args, **kwargs) plus the fields of `optional` (field -> parser)
    whose keys the JSON section at `path` holds; absent ones keep the model's
    defaults.  The model's ValueError names the offending field first and
    becomes a ConfigError at that key, or at `path` if it names no key."""
    for field, parse in (optional or {}).items():
        key = _JSON_KEYS.get(field, field)
        if key in section:
            kwargs[field] = parse(section[key], f"{path}.{key}")
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        key = str(exc).partition(" ")[0]
        key = _JSON_KEYS.get(key, key)
        raise ConfigError(f"{path}.{key}" if key.partition("[")[0] in section else path,
                          str(exc)) from None


def parse_problem(cfg: dict):
    """Check a config's JSON types and build the problem objects; besides
    the models' rules, the seed must be nonnegative and no mode reachable
    from the initial ones may lack a successor, and no object may hold a
    key that nothing reads."""
    _expect(isinstance(cfg, dict), "$", "config must be a JSON object")
    _section(cfg, "$", _CONFIG_KEYS)
    for key in ("plant", "attack", "synthesis"):
        _expect(key in cfg, key, "missing section")

    pc = _section(cfg["plant"], "plant", _PLANT_KEYS)
    A = _matrix(pc.get("A"), "plant.A")
    B = _matrix(pc.get("B"), "plant.B")
    raw_channels = pc.get("channels")
    _expect(isinstance(raw_channels, list), "plant.channels", "expected a list")
    channels = []
    for i, ch in enumerate(raw_channels):
        _section(ch, f"plant.channels[{i}]", _CHANNEL_KEYS)
        channels.append((_matrix(ch.get("C"), f"plant.channels[{i}].C"),
                         _matrix(ch.get("D"), f"plant.channels[{i}].D")))
    plant = _build(pc, "plant", ChannelPlant, A=A, B=B, channels=tuple(channels),
                   optional={"x0_bound": _number})

    ac = _section(cfg["attack"], "attack", _ATTACK_KEYS)
    patterns = ac.get("patterns")
    _expect(isinstance(patterns, list), "attack.patterns",
            "expected a list of delivered-channel sets")
    for i, pat in enumerate(patterns):
        _expect(isinstance(pat, list) and all(map(_is_int, pat)), f"attack.patterns[{i}]",
                "expected a list of channel numbers")
    model = _build(ac, "attack", build_modes, plant, patterns)
    automaton = _build(ac, "attack", SwitchingAutomaton, model.mode_count, optional={
        "allowed": _allowed, "initial": _modes, "padding_mode": _integer})
    reached, frontier = set(), set(automaton.initial)
    while frontier:
        reached |= frontier
        frontier = {b for a in frontier for b in automaton.successors(a)} - reached
    dead = [a for a in sorted(reached) if not automaton.successors(a)]
    _expect(not dead, "attack.automaton", f"modes {dead} are reachable from the initial "
            "ones but have no successor, so sequences through them end")

    sc = _section(cfg["synthesis"], "synthesis", _SYNTHESIS_KEYS)
    syncfg = _build(sc, "synthesis", SynthesisConfig, optional={
        "memory": _integer, "fir_length": _integer, "mode": _string, "eps_bar": _number,
        "verify_horizon": _integer, "verify_samples": _integer})

    seed = _integer(cfg.get("seed", 0), "seed")
    _expect(seed >= 0, "seed", "must be a nonnegative integer")
    return plant, model, automaton, syncfg, seed


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from None


# ---------------------------------------------------------------- bundle I/O

def _fir_to_json(fir: SwitchingFIR, output_only: bool = False) -> dict:
    # nothing reads "output_only" back; T's is true, so bundles keep their bytes
    return {
        "memory": fir.memory,
        "fir_length": fir.fir_length,
        "in_dim": fir.in_dim,
        "out_dim": fir.out_dim,
        "output_only": output_only,
        "entries": [
            {"history": hist, "lag": lag, "matrix": fir.taps[h, lag].tolist()}
            for h, hist in enumerate(fir.windows.tolist()) for lag in range(fir.fir_length)
        ],
    }


def _require(obj, keys, path: str) -> None:
    """obj must be a JSON object holding every key; the error names the missing field."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for key in keys:
        if key not in obj:
            raise ConfigError(f"{path}.{key}" if path != "$" else key, "missing bundle field")


_FIR_DIMS = ("memory", "fir_length", "in_dim", "out_dim")


def _tap_entry(entry, path: str) -> tuple:
    """((history, lag), matrix) of a tap entry, checked in that order: its
    history must be a list of JSON integers, its lag one, its matrix a
    rectangular list of numbers (SwitchingFIR's int() would read a mode or
    lag of 1.7, "1" or true as 1, and float() a true as 1.0)."""
    _require(entry, ("history", "lag", "matrix"), path)
    _expect(isinstance(entry["history"], list) and all(map(_is_int, entry["history"])),
            f"{path}.history", "expected a list of integer mode indices")
    lag = _integer(entry["lag"], f"{path}.lag")
    return (tuple(entry["history"]), lag), _matrix(entry["matrix"], f"{path}.matrix", finite=False)


def _fir_from_json(data, path: str, dims: tuple) -> SwitchingFIR:
    """The FIR stored at `path`, whose memory, fir_length, in_dim and out_dim
    must be the JSON integers `dims`, checked before anything is built."""
    _require(data, _FIR_DIMS + ("entries",), path)
    for key, expected in zip(_FIR_DIMS, dims):
        _expect(_integer(data[key], f"{path}.{key}") == expected, f"{path}.{key}",
                f"{data[key]} does not match the config's {expected}")
    _expect(isinstance(data["entries"], list), f"{path}.entries", "expected a list")
    # one pass over the entries names the first malformed one
    taps = [_tap_entry(entry, f"{path}.entries[{i}]") for i, entry in enumerate(data["entries"])]
    try:
        return SwitchingFIR(*dims, dict(taps))
    except (TypeError, ValueError) as exc:
        # the FIR checks its taps once; only a failure looks for the entry to name
        for i, (_, mat) in enumerate(taps):
            _expect(np.isfinite(mat).all(), f"{path}.entries[{i}].matrix",
                    "matrix entries must be finite")
        # the dims are the config's, so what is wrong lies in the entries
        raise ConfigError(f"{path}.entries", str(exc)) from None


def bundle_from_result(config: dict, result: SynthesisResult, report: dict) -> dict:
    return {
        "tool": f"switchguard {__version__}",
        "config": config,
        "status": result.status,
        "mode": result.mode,
        "gamma_bar": result.gamma_bar,
        "eps_achieved": result.eps_achieved,
        "certified_bound": result.certified_bound,
        "lag0_margin": result.lag0_margin,
        "Q": _fir_to_json(result.Q),
        "Z": _fir_to_json(result.Z),
        "T": _fir_to_json(result.T, output_only=True),
        "certification": report,
    }


def _check_factors(result: SynthesisResult, automaton: SwitchingAutomaton, memory: int) -> None:
    """The stored taps must cover exactly the windows the config's automaton
    admits, and T, the estimator `synth` derives from Z, must be -Z."""
    histories = history_array(automaton, memory).tolist()
    for name, fir in (("Q", result.Q), ("Z", result.Z), ("T", result.T)):
        # every history holds every lag 0..N-1, so equal histories mean equal entries
        _expect(fir.windows.tolist() == histories, f"{name}.entries",
                "tap histories and lags do not match the admissible windows of the "
                "config's attack automaton")
    _expect(np.array_equal(result.T.taps, -result.Z.taps), "T", "taps are not those of -Z")


def load_bundle(path: str):
    bundle = load_config(path)
    _require(bundle, ("config", "Q", "Z", "T", "gamma_bar", "eps_achieved",
                      "certified_bound", "status", "mode", "lag0_margin"), "$")
    for key in ("gamma_bar", "eps_achieved", "certified_bound", "lag0_margin"):
        _expect(math.isfinite(_number(bundle[key], key)), key, "must be finite")
    plant, model, automaton, syncfg, seed = parse_problem(bundle["config"])
    M, N = syncfg.memory, syncfg.fir_length
    result = SynthesisResult(
        gamma_bar=float(bundle["gamma_bar"]),
        eps_achieved=float(bundle["eps_achieved"]),
        certified_bound=float(bundle["certified_bound"]),
        Q=_fir_from_json(bundle["Q"], "Q", (M, N, plant.n, plant.n)),
        Z=_fir_from_json(bundle["Z"], "Z", (M, N, model.p, plant.n)),
        T=_fir_from_json(bundle["T"], "T", (M, N, model.p, plant.n)),
        status=str(bundle["status"]),
        mode=str(bundle["mode"]),
        lag0_margin=float(bundle["lag0_margin"]),
    )
    # the scalars must be those `synthesize` gives for the config; the attack
    # reads an eps_achieved up to EXACT_EPS as an exact design's
    eps, exact = result.eps_achieved, syncfg.mode == MODE_EXACT
    bound = syncfg.certified_bound(result.gamma_bar, eps)
    for key, ok, expected in (
            ("status", result.status == "optimal", "'optimal'"),
            ("mode", result.mode == syncfg.mode, f"the config's mode '{syncfg.mode}'"),
            ("eps_achieved", 0.0 <= eps and (eps <= EXACT_EPS if exact else eps < 1.0),
             f"in [0, {EXACT_EPS}] on an exact config" if exact else "in [0, 1)"),
            ("certified_bound", result.certified_bound == bound,
             f"{bound!r}, the bound of gamma_bar and eps_achieved")):
        _expect(ok, key, f"{bundle[key]!r} is not {expected}")
    _check_factors(result, automaton, M)
    margin = _lag0_margin(result.Z, result.Q, model)
    _expect(result.lag0_margin == margin, "lag0_margin",
            f"{bundle['lag0_margin']!r} is not {margin!r}, the margin of Q and Z")
    return bundle, result, plant, model, automaton, syncfg, seed


def _create(path: str, flag: str, shown: str | None = None):
    """`path` opened for writing ("\n" line ends, as csv needs); an OSError
    becomes a ConfigError at the flag that named the path, `shown` if given."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(flag, f"cannot write {shown or path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _bundle_writer(path: str):
    """write(bundle) to `synth --out`'s file, made in `path`'s folder before
    the solve, so an unwritable path fails first, moved onto `path` at the
    end of the block and removed on any failure, so a failed run leaves
    `path` as it was."""
    if os.path.isdir(path):
        raise ConfigError("--out", f"cannot write {path}: it is a directory")
    part = f"{path}.{os.getpid()}.part"
    fh = _create(part, "--out", path)
    try:
        with fh:
            yield lambda bundle: fh.write(json.dumps(bundle, indent=1, sort_keys=True) + "\n")
        try:
            os.replace(part, path)
        except OSError as exc:
            raise ConfigError("--out", f"cannot write {path}: {exc.strerror or exc}") from None
    except BaseException:
        os.remove(part)
        raise


# ----------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    plant, model, automaton, syncfg, _ = parse_problem(cfg)
    print(f"ok: {plant.n} states, {plant.channel_count} channels "
          f"({model.p} stacked outputs), {model.mode_count} modes, "
          f"M={syncfg.memory} N={syncfg.fir_length} mode={syncfg.mode}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    overrides = {key: value for key, value in
                 (("mode", args.mode), ("eps_bar", args.eps), ("N", args.fir))
                 if value is not None}
    if overrides:
        _expect(isinstance(cfg, dict), "$", "config must be a JSON object")
        _section(cfg.setdefault("synthesis", {}), "synthesis", _SYNTHESIS_KEYS).update(overrides)
    plant, model, automaton, syncfg, seed = parse_problem(cfg)
    out = args.out or "bundle.json"
    with _bundle_writer(out) as write:
        if args.dump_lp:
            from .synthesis import assemble_lp, decision_variables
            lp = assemble_lp(plant, model, automaton, syncfg,
                             decision_variables(automaton, syncfg, plant.n, model.p))
            with _create(args.dump_lp, "--dump-lp") as fh:
                fh.write(format_lp(lp, name="estimator synthesis"))
            print(f"wrote LP dump to {args.dump_lp}")
        result = synthesize(plant, model, automaton, syncfg)
        report = certify(plant, model, automaton, syncfg, result, seed=seed)
        write(bundle_from_result(cfg, result, report))
    print(f"gamma_bar        = {result.gamma_bar:.6f}")
    print(f"eps_achieved     = {result.eps_achieved:.3e}")
    print(f"certified_bound  = {result.certified_bound:.6f}")
    print(f"bundle written to {out}")
    return EXIT_OK


def _parse_sigma(text: str, automaton: SwitchingAutomaton) -> tuple[int, ...]:
    """Comma-separated plain decimal modes: no sign, underscore or empty entry."""
    tokens = [tok.strip() for tok in text.split(",")]
    _expect(all(tok.isascii() and tok.isdigit() for tok in tokens), "--sigma",
            "expected comma-separated mode indices")
    sigma = tuple(map(int, tokens))
    _within_budget(len(sigma), "--sigma", "modes")
    top = automaton.mode_count - 1
    for m in sigma:
        _expect(0 <= m <= top, "--sigma", f"mode {m} outside 0..{top}")
    _expect(automaton.is_admissible(sigma), "--sigma",
            "not an admissible sequence of the config's attack automaton")
    return sigma


def _within_budget(count: int, path: str, what: str) -> None:
    _expect(count <= SEQUENCE_BUDGET, path,
            f"{count} {what} exceed the budget of {SEQUENCE_BUDGET}")


def _check_horizon(args) -> None:
    _expect(args.horizon is None or args.horizon >= 1, "--horizon",
            f"must be a positive integer, got {args.horizon}")
    if args.horizon is not None:
        _within_budget(args.horizon, "--horizon", "steps")


def _check_length(args, sigma, source: str) -> None:
    """A given --horizon must equal the length of the sequence that sets it."""
    _expect(args.horizon is None or args.horizon == len(sigma), "--horizon",
            f"{args.horizon} differs from the {len(sigma)} steps of {source}")


def cmd_norm(args) -> int:
    _check_horizon(args)
    _expect(not (args.sigma and args.samples is not None), "--samples",
            "cannot be given with --sigma, the one sequence measured")
    samples = 10 if args.samples is None else args.samples
    _expect(samples >= 1, "--samples", f"must be a positive integer, got {samples}")
    _within_budget(samples, "--samples", "sequences")
    _, result, plant, model, automaton, syncfg, seed = load_bundle(args.bundle)
    if args.sigma:
        sigmas = [_parse_sigma(args.sigma, automaton)]
        _check_length(args, sigmas[0], "--sigma")
    else:
        rng = np.random.default_rng(seed)
        H = args.horizon if args.horizon is not None else syncfg.verify_horizon
        sigmas = [automaton.random_sequence(H, rng) for _ in range(samples)]

    norms = _sampled_norms(plant, model, result.Q, result.Z, sigmas, len(sigmas[0]),
                           automaton.padding_mode)
    writer = csv.writer(sys.stdout)
    writer.writerow(["sigma", "eps", "gamma"])
    for sigma, eps, gamma in zip(sigmas, *norms):
        writer.writerow(["".join(map(str, sigma)), f"{eps:.12g}", f"{gamma:.12g}"])
    return EXIT_OK


def _load_scenario(path: str, plant: ChannelPlant, automaton: SwitchingAutomaton) -> Scenario:
    data = _section(load_config(path), "scenario", _SCENARIO_KEYS)
    for key in ("sigma", "w"):
        _expect(key in data, f"scenario.{key}", "missing field")
    w = _matrix(data["w"], "scenario.w")
    sigma = _modes(data["sigma"], "scenario.sigma")
    _within_budget(len(sigma), "scenario.sigma", "modes")
    x0 = data.get("x0", [0.0] * plant.n)
    _expect(isinstance(x0, list), "scenario.x0", "expected a list of numbers")
    x0 = np.array([_number(v, "scenario.x0") for v in x0])
    scenario = _build(data, "scenario", Scenario, sigma=sigma, w=oc.Signal(w), x0=x0,
                      horizon=len(sigma), optional={"x0_time": _integer})
    _build(data, "scenario", scenario.validate, plant, automaton)
    return scenario


def cmd_simulate(args) -> int:
    _check_horizon(args)
    _expect(not (args.scenario and args.sigma), "--sigma",
            "cannot be given with --scenario, whose sigma is simulated")
    _, result, plant, model, automaton, syncfg, _ = load_bundle(args.bundle)
    if args.scenario:
        scenario = _load_scenario(args.scenario, plant, automaton)
        _check_length(args, scenario.sigma, "the scenario")
        predicted = None
    else:
        H = args.horizon if args.horizon is not None else syncfg.verify_horizon
        if args.sigma:
            sigma = _parse_sigma(args.sigma, automaton)
            _check_length(args, sigma, "--sigma")
        else:
            sigma = (automaton.padding_mode,) * H
            _expect(automaton.is_admissible(sigma), "--sigma",
                    f"the default sequence (padding mode {automaton.padding_mode} "
                    "throughout) is not admissible for the config's attack automaton; "
                    "give an admissible sequence with --sigma")
        scenario, predicted = worst_case_inputs(plant, model, result, sigma,
                                                len(sigma), automaton.padding_mode)
    trace = make_trace(plant, model, result, scenario, automaton.padding_mode)
    if not math.isfinite(trace.sup_error):
        print(f"numerical failure: the simulated error over --horizon {scenario.horizon} steps "
              f"is not finite (sup_error = {trace.sup_error}); try a shorter --horizon",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if args.trace:
        with _create(args.trace, "--trace") as fh:
            writer = csv.writer(fh)
            header = (["t", "sigma"]
                      + [f"x_{i}" for i in range(plant.n)]
                      + [f"y_{j}" for j in range(model.p)]
                      + [f"xhat_{i}" for i in range(plant.n)]
                      + [f"e_{i}" for i in range(plant.n)])
            writer.writerow(header)
            for t in range(scenario.horizon):
                writer.writerow([t, scenario.sigma[t]]
                                + [f"{v:.12g}" for v in trace.x.samples[t]]
                                + [f"{v:.12g}" for v in trace.y_a.samples[t]]
                                + [f"{v:.12g}" for v in trace.x_hat.samples[t]]
                                + [f"{v:.12g}" for v in trace.e.samples[t]])
        print(f"trace written to {args.trace}")
    print(f"sup_error = {trace.sup_error:.9f}")
    if predicted is not None:
        print(f"predicted worst-case value = {predicted:.9f}")
    return EXIT_OK


def cmd_attack(args) -> int:
    _check_horizon(args)
    _, result, plant, model, automaton, _, _ = load_bundle(args.bundle)
    sigma, value = attack_search(plant, model, result, automaton, args.horizon,
                                 strategy=args.strategy)
    print(f"sigma*  = {''.join(map(str, sigma))}")
    print(f"value   = {value:.9f}")
    print(f"certified_bound = {result.certified_bound:.9f}")
    return EXIT_OK


def _tap_diff(fir: SwitchingFIR, reference, history) -> float:
    taps = fir.taps[fir.history_ids(history), :len(reference)]
    return float(np.max(np.abs(taps - np.array(reference))))


def cmd_example(args) -> int:
    plant, nom_model, nom_auto, nom_cfg, _ = parse_problem(demo.nominal_config_dict())
    nominal = synthesize(plant, nom_model, nom_auto, nom_cfg)

    _, sw_model, sw_auto, sw_cfg, _ = parse_problem(demo.demo_config_dict())
    switching = synthesize(plant, sw_model, sw_auto, sw_cfg)
    relaxed_cfg = dataclasses.replace(sw_cfg, mode="relaxed", eps_bar=0.1)
    try:
        relaxed = synthesize(plant, sw_model, sw_auto, relaxed_cfg)
        relaxed_line = (f"relaxed attempt (eps_bar=0.1): gamma_bar = {relaxed.gamma_bar:.4f}, "
                        f"certified bound = {relaxed.certified_bound:.4f}")
        relaxed_json = {"gamma_bar": relaxed.gamma_bar,
                        "certified_bound": relaxed.certified_bound,
                        "eps_achieved": relaxed.eps_achieved}
    except SynthesisInfeasibleError:
        relaxed_line = "relaxed attempt (eps_bar=0.1): infeasible"
        relaxed_json = None

    nominal_ok = abs(nominal.gamma_bar - demo.REFERENCE_NOMINAL_COST) \
        <= 0.01 * demo.REFERENCE_NOMINAL_COST
    switching_ok = switching.gamma_bar <= demo.REFERENCE_SWITCHING_COST * 1.01

    diff_nom = _tap_diff(nominal.T, demo.REFERENCE_NOMINAL_TAPS, (0,))
    diff_sw = {j: _tap_diff(switching.T, demo.REFERENCE_SWITCHING_TAPS[j], (j,))
               for j in (0, 1)}

    if args.json:
        payload = {
            "nominal": {"reference": demo.REFERENCE_NOMINAL_COST,
                        "gamma_bar": nominal.gamma_bar,
                        "eps_achieved": nominal.eps_achieved,
                        "met": nominal_ok,
                        "tap_diff": diff_nom},
            "switching": {"reference": demo.REFERENCE_SWITCHING_COST,
                          "gamma_bar": switching.gamma_bar,
                          "eps_achieved": switching.eps_achieved,
                          "met": switching_ok,
                          "tap_diff": {str(k): v for k, v in diff_sw.items()},
                          "relaxed": relaxed_json},
            "label_assumption": "reference table 1 ~ mode 0 (nominal), table 2 ~ mode 1 (attack)",
        }
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"nominal:   reference 5.0275 vs ours {nominal.gamma_bar:.4f} "
              f"[{'ok' if nominal_ok else 'MISS'}]")
        print(f"switching: reference 32.5 vs ours {switching.gamma_bar:.4f} "
              f"[{'ok' if switching_ok else 'MISS'}] (exact mode)")
        print(relaxed_line)
        print("informational tap diff vs reference tables "
              "(optima need not be unique; references are rounded):")
        print(f"  nominal max|dT| = {diff_nom:.3f}")
        print(f"  switching max|dT| mode 0 = {diff_sw[0]:.3f}, mode 1 = {diff_sw[1]:.3f}")
        print("  label assumption: table 1 ~ mode 0 (nominal), table 2 ~ mode 1 (attack)")
    return EXIT_OK if (nominal_ok and switching_ok) else 1


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchguard",
        description="Synthesize and stress-test DoS-resilient state estimators.")
    parser.add_argument("--version", action="version", version=f"switchguard {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem config")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="run the synthesis and write a bundle")
    p.add_argument("config")
    p.add_argument("--out", help="bundle output path (default bundle.json)")
    p.add_argument("--mode", choices=["exact", "relaxed"])
    p.add_argument("--eps", type=float, help="relaxation bound override")
    p.add_argument("--fir", type=int, help="FIR length override")
    p.add_argument("--dump-lp", help="write the assembled LP in text format")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("norm", help="residual/performance norms along sequences")
    p.add_argument("bundle")
    p.add_argument("--sigma", help="comma-separated mode sequence")
    p.add_argument("--samples", type=int,
                   help="random sequences measured when no --sigma is given (default 10)")
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("simulate", help="run a scenario or the worst-case inputs")
    p.add_argument("bundle")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--sigma", help="attack sequence of the worst-case inputs built "
                                    "when no scenario is given")
    p.add_argument("--horizon", type=int)
    p.add_argument("--trace", help="write the trace CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="search for the worst attack sequence")
    p.add_argument("bundle")
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--strategy", choices=["exhaustive", "greedy"], default="exhaustive")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("example", help="run the bundled benchmark reproduction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SynthesisInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (LpNumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
