import csv
import hashlib
import io
import itertools
import json
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchguard import cli, demo, synthesis
from switchguard.cli import (_bundle_writer, _fir_from_json, _fir_to_json, bundle_from_result,
                             load_bundle, main, parse_problem)
from switchguard.switched_model import SwitchingFIR, history_array
from switchguard.synthesis import SEQUENCE_BUDGET, SynthesisResult

from util import (build_performance_rows, build_residual_rows, evaluate_rows, pack,
                  symbolic_variables)


@pytest.fixture()
def nominal_config(tmp_path):
    path = tmp_path / "nominal.json"
    path.write_text(json.dumps(demo.nominal_config_dict()))
    return str(path)


@pytest.fixture()
def nominal_bundle(tmp_path, nominal_config):
    out = str(tmp_path / "nominal.bundle.json")
    assert main(["synth", nominal_config, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def restricted_bundle(tmp_path_factory):
    """Two-mode design whose automaton forbids two attacked steps in a row."""
    cfg = demo.demo_config_dict()
    cfg["attack"]["automaton"] = [[1, 1], [1, 0]]
    cfg["synthesis"]["N"] = 3
    tmp = tmp_path_factory.mktemp("restricted")
    path = tmp / "restricted.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp / "restricted.bundle.json")
    assert main(["synth", str(path), "--out", out]) == 0
    return out


def test_validate_ok(nominal_config, capsys):
    assert main(["validate", nominal_config]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_bad_matrix_dimensions(tmp_path, capsys):
    cfg = demo.nominal_config_dict()
    cfg["plant"]["channels"][0]["C"] = [[1.0, 0.0]]  # wrong column count
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 2
    assert "plant.channels[0].C" in capsys.readouterr().err


def test_validate_empty_patterns(tmp_path, capsys):
    cfg = demo.nominal_config_dict()
    cfg["attack"]["patterns"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 2
    assert "attack.patterns" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("x0", [float("nan"), 0.0, 0.0]),
    ("x0_time", 1.7),
    ("x0_time", "2"),
    ("x0_time", 9),
    ("x0_time", -1),
    ("w", [[0.0, 0.0]] * 3),  # four modes in sigma
    ("x0time", 1),  # a misspelt key, which was ignored
])
def test_simulate_rejects_bad_scenario_fields(restricted_bundle, tmp_path, capsys, field, value):
    scen = {"sigma": [0, 1, 0, 1], "w": [[0.0, 0.0]] * 4, "x0": [0.0, 0.0, 0.0]}
    scen[field] = value
    spath = tmp_path / "scen.json"
    spath.write_text(json.dumps(scen))
    assert main(["simulate", restricted_bundle, "--scenario", str(spath)]) == 2
    assert f"scenario.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("x0", [0.0, 0.0]),  # the plant has three states
    ("w", [[0.0]] * 4),  # and two disturbance inputs
    ("x0", [0.0, 1.5, 0.0]),  # above the default x0_bound of 1
    ("sigma", [0, 1, 1, 0]),  # two attacked steps in a row
])
def test_simulate_scenario_plant_and_automaton_errors_name_the_field(
        restricted_bundle, tmp_path, capsys, field, value):
    scen = {"sigma": [0, 1, 0, 1], "w": [[0.0, 0.0]] * 4, "x0": [0.0, 0.0, 0.0]}
    scen[field] = value
    spath = tmp_path / "scen.json"
    spath.write_text(json.dumps(scen))
    assert main(["simulate", restricted_bundle, "--scenario", str(spath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario.{field}: ") and "Traceback" not in err


@pytest.mark.parametrize("scenario", [5, [[0, 1], [[0.0, 0.0]] * 2]], ids=["integer", "list"])
def test_simulate_rejects_non_object_scenario(restricted_bundle, tmp_path, capsys, scenario):
    spath = tmp_path / "scen.json"
    spath.write_text(json.dumps(scenario))
    assert main(["simulate", restricted_bundle, "--scenario", str(spath)]) == 2
    assert "error: scenario: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("tamper, path", [
    pytest.param(lambda c: c.update(plant=5), "plant", id="plant"),
    pytest.param(lambda c: c.update(attack=[1]), "attack", id="attack"),
    pytest.param(lambda c: c.update(synthesis="exact"), "synthesis", id="synthesis"),
    pytest.param(lambda c: c["plant"]["channels"].__setitem__(0, [[1.0]]),
                 "plant.channels[0]", id="channel"),
    pytest.param(lambda c: c["plant"].update(x0_bound=None), "plant.x0_bound",
                 id="x0-bound"),
    pytest.param(lambda c: c["attack"].update(padding_mode="0"), "attack.padding_mode",
                 id="padding-string"),
    pytest.param(lambda c: c["attack"].update(padding_mode=0.5), "attack.padding_mode",
                 id="padding-float"),
    # JSON true and false are not channel numbers or mode indices
    pytest.param(lambda c: c["attack"].update(patterns=[[1, 2], [True]]), "attack.patterns[1]",
                 id="pattern-bool"),
    pytest.param(lambda c: c["attack"].update(initial=[False]), "attack.initial",
                 id="initial-bool"),
    pytest.param(lambda c: c.update(seed=None), "seed", id="seed"),
    pytest.param(lambda c: c["synthesis"].update(N=5.7), "synthesis.N", id="N-float"),
    pytest.param(lambda c: c["synthesis"].update(N=True), "synthesis.N", id="N-bool"),
    pytest.param(lambda c: c["synthesis"].update(N="5"), "synthesis.N", id="N-string"),
    pytest.param(lambda c: c["synthesis"].update(N=0), "synthesis.N", id="N-zero"),
    pytest.param(lambda c: c["synthesis"].update(M=1.0), "synthesis.M", id="M-float"),
    pytest.param(lambda c: c["synthesis"].update(M=0), "synthesis.M", id="M-zero"),
    pytest.param(lambda c: c["synthesis"].update(verify_horizon=True),
                 "synthesis.verify_horizon", id="horizon-bool"),
    pytest.param(lambda c: c["synthesis"].update(verify_samples="20"),
                 "synthesis.verify_samples", id="samples-string"),
    pytest.param(lambda c: c["synthesis"].update(eps_bar="0.1"), "synthesis.eps_bar",
                 id="eps-string"),
    pytest.param(lambda c: c["synthesis"].update(eps_bar=False), "synthesis.eps_bar",
                 id="eps-bool"),
    pytest.param(lambda c: c["synthesis"].update(mode="relaxed", eps_bar=1.5),
                 "synthesis.eps_bar", id="eps-range"),
    pytest.param(lambda c: c["synthesis"].update(mode="fast"), "synthesis.mode", id="mode"),
    pytest.param(lambda c: c["plant"].update(x0_bound=10 ** 400), "plant.x0_bound",
                 id="x0-bound-overflow"),
    pytest.param(lambda c: c["plant"]["A"][0].__setitem__(0, float("nan")), "plant.A",
                 id="A-nan"),
    pytest.param(lambda c: c["plant"]["B"][1].__setitem__(0, float("inf")), "plant.B",
                 id="B-inf"),
    pytest.param(lambda c: c["plant"]["A"][2].__setitem__(1, 10 ** 400), "plant.A",
                 id="A-overflow"),
    pytest.param(lambda c: c["plant"]["channels"][0]["C"][0].__setitem__(1, float("-inf")),
                 "plant.channels[0].C", id="C-minus-inf"),
    pytest.param(lambda c: c["plant"]["channels"][1]["D"][0].__setitem__(0, float("nan")),
                 "plant.channels[1].D", id="D-nan"),
    pytest.param(lambda c: c["plant"].update(x0_bound=float("inf")), "plant.x0_bound",
                 id="x0-bound-inf"),
    pytest.param(lambda c: c["plant"].update(x0_bound=float("-inf")), "plant.x0_bound",
                 id="x0-bound-minus-inf"),
    pytest.param(lambda c: c["plant"].update(x0_bound=float("nan")), "plant.x0_bound",
                 id="x0-bound-nan"),
    pytest.param(lambda c: c.update(seed=-1), "seed", id="seed-negative"),
    # dimension and range rules of the model constructors
    pytest.param(lambda c: c["plant"].update(A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "plant.A",
                 id="A-not-square"),
    pytest.param(lambda c: c["plant"]["B"].pop(), "plant.B", id="B-rows"),
    pytest.param(lambda c: c["plant"]["channels"][1].update(D=[[0.0, 0.0, 0.0]]),
                 "plant.channels[1].D", id="D-shape"),
    pytest.param(lambda c: c["attack"].update(patterns=[[1, 2], [3]]), "attack.patterns[1]",
                 id="channel-3-of-2"),
    pytest.param(lambda c: c["attack"].update(patterns=[[1]]), "attack.patterns[0]",
                 id="pattern-0-not-full"),
    pytest.param(lambda c: c["attack"].update(padding_mode=2), "attack.padding_mode",
                 id="padding-range"),
    pytest.param(lambda c: c["attack"].update(automaton=[[1, 1, 1]] * 3), "attack.automaton",
                 id="automaton-3x3"),
    pytest.param(lambda c: c["attack"].update(initial=[5]), "attack.initial",
                 id="initial-range"),
    # a key that nothing reads, such as a misspelt one, which was ignored:
    # synthesis.fir_lenght = 7 solved at the default N
    pytest.param(lambda c: c.update(sed=1), "sed", id="unknown-top"),
    pytest.param(lambda c: c["plant"].update(x0_bund=2.0), "plant.x0_bund", id="unknown-plant"),
    pytest.param(lambda c: c["plant"]["channels"][1].update(E=[[1.0]]),
                 "plant.channels[1].E", id="unknown-channel"),
    pytest.param(lambda c: c["attack"].update(padding=0), "attack.padding", id="unknown-attack"),
    pytest.param(lambda c: c["synthesis"].update(fir_lenght=7), "synthesis.fir_lenght",
                 id="unknown-synthesis"),
])
def test_validate_rejects_malformed_fields(tmp_path, capsys, tamper, path):
    cfg = demo.nominal_config_dict()
    tamper(cfg)
    cpath = tmp_path / "bad.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["validate", str(cpath)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("tamper, path", [
    pytest.param(lambda c: c["plant"]["A"][0].__setitem__(0, True), "plant.A[0][0]", id="A"),
    pytest.param(lambda c: c["attack"].update(automaton=[[True, True], [True, False]]),
                 "attack.automaton[0][0]", id="automaton"),
])
def test_validate_rejects_boolean_matrix_entries(tmp_path, capsys, tamper, path):
    cfg = demo.demo_config_dict()
    tamper(cfg)
    cpath = tmp_path / "bool.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["validate", str(cpath)]) == 2
    assert f"error: {path}: expected a number" in capsys.readouterr().err


@pytest.mark.parametrize("automaton, initial, ok", [
    pytest.param([[0, 1], [0, 0]], None, False, id="reached-dead-end"),
    pytest.param([[1, 1], [0, 0]], None, False, id="initial-dead-end"),
    pytest.param([[1, 0], [0, 0]], [0], True, id="unreachable-dead-end"),
])
def test_validate_rejects_reachable_dead_ends(tmp_path, capsys, automaton, initial, ok):
    cfg = demo.demo_config_dict()
    cfg["attack"]["automaton"] = automaton
    if initial is not None:
        cfg["attack"]["initial"] = initial
    cpath = tmp_path / "auto.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["validate", str(cpath)]) == (0 if ok else 2)
    assert ("error: attack.automaton: " in capsys.readouterr().err) is not ok


def test_validate_accepts_repeated_channel_number(tmp_path, capsys):
    cfg = demo.demo_config_dict()
    cfg["attack"]["patterns"][0] = [1, 2, 2]
    cpath = tmp_path / "repeat.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["validate", str(cpath)]) == 0
    assert "2 modes" in capsys.readouterr().out


def test_synth_plant_without_disturbance(tmp_path):
    cfg = demo.demo_config_dict()
    cfg["plant"]["B"] = [[], [], []]
    for channel in cfg["plant"]["channels"]:
        channel["D"] = [[]] * len(channel["C"])
    cpath = tmp_path / "no_w.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "no_w.bundle.json"
    assert main(["synth", str(cpath), "--out", str(out)]) == 0
    bundle = json.load(open(out))
    assert np.isclose(bundle["certification"]["gamma_rows"], bundle["gamma_bar"], atol=1e-9)
    assert np.isclose(bundle["certified_bound"], bundle["gamma_bar"], atol=1e-9)


@pytest.mark.parametrize("command", ["validate", "synth"])
@pytest.mark.parametrize("key", ["verify_horizon", "verify_samples"])
@pytest.mark.parametrize("value", [0, -2])
def test_nonpositive_verification_rejected(tmp_path, capsys, command, key, value):
    cfg = demo.nominal_config_dict()
    cfg["synthesis"][key] = value
    cpath = tmp_path / "bad.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "b.json"
    argv = [command, str(cpath)] + (["--out", str(out)] if command == "synth" else [])
    assert main(argv) == 2
    assert f"error: synthesis.{key}: " in capsys.readouterr().err
    assert not out.exists()


def test_synth_override_rejects_non_object_synthesis(tmp_path, capsys):
    cfg = demo.nominal_config_dict()
    cfg["synthesis"] = 5
    cpath = tmp_path / "bad.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["synth", str(cpath), "--fir", "3", "--out", str(tmp_path / "b.json")]) == 2
    assert "error: synthesis: " in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/config.json"]) == 2


def test_synth_writes_bundle(nominal_bundle, capsys):
    bundle = json.load(open(nominal_bundle))
    assert abs(bundle["gamma_bar"] - 5.0275) <= 0.0503
    assert bundle["status"] == "optimal"
    assert bundle["certification"]["eps_rows"] <= 1e-7
    assert bundle["Q"]["entries"] and bundle["Z"]["entries"] and bundle["T"]["entries"]


def test_synth_switching_config(tmp_path, capsys):
    path = tmp_path / "switching.json"
    path.write_text(json.dumps(demo.demo_config_dict()))
    out = str(tmp_path / "switching.bundle.json")
    assert main(["synth", str(path), "--out", out]) == 0
    bundle = json.load(open(out))
    assert bundle["gamma_bar"] <= 32.83
    assert bundle["eps_achieved"] <= 1e-7
    assert len(bundle["T"]["entries"]) == 2 * 5  # two tap windows, five lags


def test_synth_dump_lp(tmp_path, nominal_config):
    out = str(tmp_path / "b.json")
    dump = str(tmp_path / "problem.lp")
    assert main(["synth", nominal_config, "--out", out, "--dump-lp", dump]) == 0
    text = open(dump).read()
    assert "Minimize" in text and "Subject To" in text


def _infeasible_config(folder) -> str:
    cfg = demo.nominal_config_dict()
    cfg["plant"]["channels"] = [{"C": [[0.0, 0.0, 0.0]], "D": [[0.0, 0.0]]}]
    cfg["attack"]["patterns"] = [[1]]
    cfg["synthesis"]["N"] = 1
    path = folder / "infeasible.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_synth_infeasible_exit_code(tmp_path, capsys):
    assert main(["synth", _infeasible_config(tmp_path), "--out", str(tmp_path / "x.json")]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_synth_unwritable_out_fails_before_the_solve(nominal_config, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(cli, "synthesize", lambda *args: pytest.fail("synthesize ran"))
    out = tmp_path / "missing" / "b.json"
    assert main(["synth", nominal_config, "--out", str(out)]) == 2
    assert f"error: --out: cannot write {out}: " in capsys.readouterr().err


def test_synth_out_directory_fails_before_the_solve(nominal_config, tmp_path, capsys,
                                                    monkeypatch):
    """An existing directory at --out used to fail only when the finished
    bundle was moved onto it, after the solve and the certification."""
    monkeypatch.setattr(cli, "synthesize", lambda *args: pytest.fail("synthesize ran"))
    assert main(["synth", nominal_config, "--out", str(tmp_path)]) == 2
    assert f"error: --out: cannot write {tmp_path}: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["nominal.json"]


def test_failed_synth_leaves_out_as_it_was(tmp_path, capsys):
    """An infeasible run writes no bundle and leaves no other file; a bundle
    already at --out keeps its bytes."""
    config = _infeasible_config(tmp_path)
    assert main(["synth", config, "--out", str(tmp_path / "new.json")]) == 3
    assert os.listdir(tmp_path) == ["infeasible.json"]
    old = tmp_path / "old.json"
    old.write_text("{}\n")
    assert main(["synth", config, "--out", str(old)]) == 3
    assert sorted(os.listdir(tmp_path)) == ["infeasible.json", "old.json"]
    assert old.read_text() == "{}\n"


def test_synth_deterministic_bundles(tmp_path, nominal_config):
    out1 = str(tmp_path / "b1.json")
    out2 = str(tmp_path / "b2.json")
    assert main(["synth", nominal_config, "--out", out1]) == 0
    assert main(["synth", nominal_config, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


# -0.0, the smallest subnormal, a subnormal near the normal range, and the
# ends of the finite range, besides any finite float
_TAP_VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                         1e308, -1e308, 1.7976931348623157e308]),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _switching_firs(draw):
    memory, fir_length = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    shape = (2 ** memory, fir_length, draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    size = int(np.prod(shape))
    taps = np.array(draw(st.lists(_TAP_VALUES, min_size=size, max_size=size))).reshape(shape)
    coeffs = {(hist, k): taps[h, k]
              for h, hist in enumerate(itertools.product(range(2), repeat=memory))
              for k in range(fir_length)}
    return SwitchingFIR(memory, fir_length, shape[3], shape[2], coeffs)


@settings(max_examples=60, deadline=None)
@given(fir=_switching_firs())
def test_fir_json_round_trip_is_bit_exact(fir):
    dims = (fir.memory, fir.fir_length, fir.in_dim, fir.out_dim)
    back = _fir_from_json(json.loads(json.dumps(_fir_to_json(fir))), "Q", dims)
    assert (back.memory, back.fir_length, back.in_dim, back.out_dim) == dims
    assert back.taps.tobytes() == fir.taps.tobytes()
    assert np.array_equal(back.windows, fir.windows)


def _same_json(a, b) -> bool:
    """Equal JSON values, floats bit for bit (so -0.0 is not 0.0)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same_json(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    return type(a) is type(b) and a == b


@st.composite
def _bundle_parts(draw):
    """A config with drawn plant entries, automaton and synthesis options,
    and a certify report with drawn values."""
    n, m_w, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def matrix(rows, cols):
        return [[draw(_TAP_VALUES) for _ in range(cols)] for _ in range(rows)]

    config = {
        "plant": {"A": matrix(n, n), "B": matrix(n, m_w),
                  "channels": [{"C": matrix(1, n), "D": matrix(1, m_w)} for _ in range(p)],
                  "x0_bound": draw(st.sampled_from([0.0, 5e-324, 1.0, 1e308])
                                   | st.floats(0.0, 1e308))},
        "attack": {"patterns": [list(range(1, p + 1)), []],
                   "automaton": draw(st.sampled_from(["complete", [[1, 1], [1, 0]],
                                                      [[0.0, 2.5], [1.0, 1.0]]])),
                   "initial": draw(st.sampled_from([[0], [0, 1]])),
                   "padding_mode": draw(st.integers(0, 1))},
        "synthesis": {"M": draw(st.integers(1, 2)), "N": draw(st.integers(1, 3)),
                      "mode": draw(st.sampled_from(["exact", "relaxed"])),
                      "eps_bar": draw(st.sampled_from([0.0, -0.0, 5e-324])
                                      | st.floats(0.0, 1.0, exclude_max=True)),
                      "verify_horizon": draw(st.integers(1, 50)),
                      "verify_samples": draw(st.integers(1, 50))},
        "seed": draw(st.integers(0, 2 ** 63)),
    }
    report = {key: draw(_TAP_VALUES) for key in (
        "eps_rows", "gamma_rows", "max_sampled_performance_norm", "max_sampled_residual_norm")}
    report.update({key: draw(st.integers(0, 2 ** 63))
                   for key in ("sampled_sigmas", "seed", "verify_horizon")})
    return config, report


@settings(max_examples=40, deadline=None)
@given(parts=_bundle_parts())
def test_bundle_json_round_trip_is_bit_exact(parts):
    """The plant, config and certify report of a bundle written by `synth`'s
    writer come back from `load_bundle` bit for bit."""
    config, report = parts
    plant, model, automaton, syncfg, seed = parse_problem(config)
    windows = history_array(automaton, syncfg.memory).tolist()

    def zero(in_dim):
        return SwitchingFIR(syncfg.memory, syncfg.fir_length, in_dim, plant.n, {
            (tuple(hist), k): np.zeros((plant.n, in_dim))
            for hist in windows for k in range(syncfg.fir_length)})

    result = SynthesisResult(gamma_bar=1.0, eps_achieved=0.0, certified_bound=1.0,
                             Q=zero(plant.n), Z=zero(model.p), T=zero(model.p),
                             status="optimal", mode=syncfg.mode, lag0_margin=1.0)
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/bundle.json"
        with _bundle_writer(path) as write:
            write(bundle_from_result(config, result, report))
        bundle, _, back, back_model, back_automaton, back_syncfg, back_seed = load_bundle(path)
    assert _same_json(bundle["config"], config)
    assert _same_json(bundle["certification"], report)
    for mine, theirs in ((plant.A, back.A), (plant.B, back.B), (model.C, back_model.C),
                         (model.D, back_model.D)):
        assert mine.tobytes() == theirs.tobytes()
    assert [c.tobytes() + d.tobytes() for c, d in plant.channels] == \
        [c.tobytes() + d.tobytes() for c, d in back.channels]
    assert plant.x0_bound.hex() == back.x0_bound.hex()
    assert np.array_equal(automaton.allowed, back_automaton.allowed)
    assert (automaton.initial, automaton.padding_mode) == \
        (back_automaton.initial, back_automaton.padding_mode)
    assert repr(syncfg) == repr(back_syncfg) and seed == back_seed


def test_bundle_round_trip_recertifies(nominal_bundle):
    bundle, result, plant, model, automaton, syncfg, _ = load_bundle(nominal_bundle)
    variables = symbolic_variables(automaton, syncfg, plant.n, model.p)
    x = pack(variables, result.Q, result.Z)
    gamma_rows = np.max(evaluate_rows(
        build_performance_rows(plant, model, automaton, syncfg, variables), x))
    eps_rows = np.max(evaluate_rows(
        build_residual_rows(plant, model, automaton, syncfg, variables), x))
    assert np.isclose(gamma_rows, result.gamma_bar, atol=1e-9)
    assert eps_rows <= result.eps_achieved + 1e-9


def test_norm_constant_sigma(nominal_bundle, capsys):
    assert main(["norm", nominal_bundle, "--sigma", ",".join(["0"] * 25)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["eps"]) <= 1e-7
    assert abs(float(rows[0]["gamma"]) - 5.0275) <= 1e-4


def test_norm_sampled(nominal_bundle, capsys):
    assert main(["norm", nominal_bundle, "--samples", "3", "--horizon", "12"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    for row in rows:
        assert float(row["eps"]) <= 1e-7


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_norm_nonpositive_samples_rejected(nominal_bundle, capsys, samples):
    assert main(["norm", nominal_bundle, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert "--samples" in captured.err
    assert captured.out == ""


def test_norm_bad_sigma(nominal_bundle, capsys):
    assert main(["norm", nominal_bundle, "--sigma", "0,7"]) == 2


@pytest.mark.parametrize("sigma", ["0_1,0", "+1,0", "0,,1", "0,1,"])
def test_sigma_reads_only_plain_decimal_modes(restricted_bundle, capsys, sigma):
    """An underscore or sign inside a mode, or an empty entry, is an input
    error rather than another admissible sequence."""
    assert main(["norm", restricted_bundle, "--sigma", sigma]) == 2
    captured = capsys.readouterr()
    assert "--sigma" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["norm", "simulate"])
def test_inadmissible_sigma_rejected(restricted_bundle, command, capsys):
    assert main([command, restricted_bundle, "--sigma", "0,1,0,1"]) == 0
    capsys.readouterr()
    assert main([command, restricted_bundle, "--sigma", "0,1,1,1"]) == 2
    assert "--sigma" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", [5, [0, 1, 1, 1], ["0"], [True, False, True, False]])
def test_simulate_rejects_bad_scenario_sigma(restricted_bundle, tmp_path, capsys, sigma):
    scen = {"sigma": sigma, "w": [[0.0, 0.0]] * 4, "x0": [0.0, 0.0, 0.0]}
    spath = tmp_path / "scen.json"
    spath.write_text(json.dumps(scen))
    assert main(["simulate", restricted_bundle, "--scenario", str(spath)]) == 2
    assert "scenario.sigma" in capsys.readouterr().err


@pytest.mark.parametrize("tamper, path", [
    # the config gains two modes that the stored taps do not cover
    pytest.param(lambda b: b["config"]["attack"].update(patterns=[[1, 2], [1], [2]]),
                 "Q.entries", id="uncovered-modes"),
    pytest.param(lambda b: b["config"]["synthesis"].update(N=3), "error: Q.fir_length: 2 ",
                 id="fir-length"),
    pytest.param(lambda b: b["Z"]["entries"][0].pop("matrix"), "Z.entries[0].matrix",
                 id="missing-matrix"),
    # the taps of a history must hold every lag 0..N-1
    pytest.param(lambda b: b["Q"]["entries"].pop(1), "Q.entries", id="missing-entry"),
    # a history that is not a flat list of integers is named, not reported
    # as the TypeError of building the taps
    pytest.param(lambda b: b["T"]["entries"][1].update(history=[[0]]),
                 "error: T.entries[1].history: ", id="nested-history"),
    pytest.param(lambda b: b["Q"]["entries"][1].update(history=5),
                 "error: Q.entries[1].history: ", id="int-history"),
    pytest.param(lambda b: b.pop("lag0_margin"), "lag0_margin", id="missing-margin"),
    # the margin must be the one Q and Z give; an edited one ran with exit 0
    pytest.param(lambda b: b.update(lag0_margin=123.0), "error: lag0_margin: 123.0 is not ",
                 id="edited-margin"),
    pytest.param(lambda b: b["Q"]["entries"][0]["matrix"][0].__setitem__(0, float("nan")),
                 "Q.entries[0].matrix", id="nan-tap"),
    pytest.param(lambda b: b["T"]["entries"][1]["matrix"][1].__setitem__(1, float("-inf")),
                 "T.entries[1].matrix", id="infinite-tap"),
    # a tap matrix is read as the config's matrices are: a rectangular list
    # of numbers, named at its entry; a true was read as 1.0 and ran
    pytest.param(lambda b: b["Q"]["entries"][1].update(matrix=[[1, "a"]]),
                 "error: Q.entries[1].matrix: ", id="string-tap"),
    pytest.param(lambda b: b["Q"]["entries"][1]["matrix"][1].pop(),
                 "error: Q.entries[1].matrix: rows have unequal lengths", id="ragged-tap"),
    pytest.param(lambda b: b["Q"]["entries"][1]["matrix"][0].__setitem__(0, True),
                 "error: Q.entries[1].matrix[0][0]: ", id="boolean-tap"),
    # the bundle's scalars are finite numbers; JSON true is not one
    pytest.param(lambda b: b.update(certified_bound=True), "certified_bound",
                 id="boolean-bound"),
    pytest.param(lambda b: b.update(gamma_bar=float("nan")), "gamma_bar", id="nan-gamma"),
    pytest.param(lambda b: b.update(eps_achieved="0"), "eps_achieved", id="string-eps"),
    pytest.param(lambda b: b.update(lag0_margin=float("-inf")), "lag0_margin",
                 id="infinite-margin"),
    pytest.param(lambda b: b["config"]["attack"].update(intial=[0]),
                 "error: attack.intial: unknown field", id="unknown-config-key"),
])
def test_attack_rejects_tampered_bundle(nominal_bundle, tmp_path, capsys, tamper, path):
    bundle = json.load(open(nominal_bundle))
    tamper(bundle)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(bundle))
    assert main(["attack", str(bad), "--horizon", "3"]) == 2
    assert path in capsys.readouterr().err


FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "data"


@pytest.mark.parametrize("fir, key, value", [
    ("Q", "memory", True), ("Z", "memory", 1.5), ("T", "memory", "1"),
    ("Q", "fir_length", 2.0), ("Z", "fir_length", 6), ("Q", "in_dim", 2),
    ("T", "out_dim", 3.0)])
def test_bundle_fir_dims_must_be_the_configs_integers(tmp_path, capsys, fir, key, value):
    """A memory of true, 1.5 or "1" and a fir_length of 2.0 were read by int();
    a fir_length of N + 1 was built before it was compared with the config."""
    bundle = json.loads((FROZEN / "switching_m1n5.json").read_text())
    bundle[fir][key] = value
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(bundle))
    assert main(["attack", str(bad), "--horizon", "3"]) == 2
    assert f"error: {fir}.{key}: " in capsys.readouterr().err


@pytest.mark.parametrize("fir, i, key, value", [
    ("Q", 5, "history", [1.7]), ("Z", 6, "history", ["1"]), ("T", 7, "history", [True]),
    ("Q", 6, "lag", 1.0), ("Z", 1, "lag", True)])
def test_bundle_tap_history_and_lag_must_be_integers(tmp_path, capsys, fir, i, key, value):
    """int() read a mode of 1.7, "1" or true and a lag of 1.0 or true as 1,
    the value the entry held, so the tampered bundle ran with exit 0."""
    bundle = json.loads((FROZEN / "switching_m1n5.json").read_text())
    assert bundle[fir]["entries"][i][key] in ([1], 1)
    bundle[fir]["entries"][i][key] = value
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(bundle))
    assert main(["attack", str(bad), "--horizon", "3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {fir}.entries[{i}].{key}: ")


def _one_ulp_up(matrix):
    matrix[0][1] = math.nextafter(matrix[0][1], math.inf)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda b: _one_ulp_up(b["T"]["entries"][3]["matrix"]), id="T-entry"),
    pytest.param(lambda b: _one_ulp_up(b["Z"]["entries"][0]["matrix"]), id="Z-entry"),
    pytest.param(lambda b: b.update(T=b["Z"]), id="T-is-Z")])
def test_bundle_T_must_be_minus_Z(tmp_path, capsys, edit):
    """`synth` writes T = -Z bit for bit, as both frozen bundles hold; an
    edited T ran attack, norm and simulate with exit 0."""
    for name in ("nominal_m1n2.json", "switching_m1n5.json"):
        result = load_bundle(str(FROZEN / name))[1]
        assert np.array_equal(result.T.taps, -result.Z.taps)
    bundle = json.loads((FROZEN / "switching_m1n5.json").read_text())
    edit(bundle)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(bundle))
    for argv in (["attack", str(bad), "--horizon", "3"], ["norm", str(bad), "--horizon", "3"],
                 ["simulate", str(bad), "--horizon", "3"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: T: taps are not those of -Z\n"


@pytest.mark.parametrize("field, value", [("status", "infeasible"), ("mode", "relaxed"),
                                          ("eps_achieved", 0.5), ("certified_bound", 1.0)])
def test_attack_rejects_scalars_synth_does_not_write(tmp_path, capsys, field, value):
    """The exact design's status, mode, eps_achieved and certified bound must
    be those `synth` writes for its config: an eps_achieved above 1e-9 made
    the attack read the design as relaxed, a certified bound of 1.0 was
    printed next to a value of 25."""
    frozen = FROZEN / "switching_m1n5.json"
    bundle = json.loads(frozen.read_text())
    assert main(["attack", str(frozen), "--horizon", "6"]) == 0
    bundle[field] = value
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert main(["attack", str(bad), "--horizon", "6"]) == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("fir_length", [3, 5])
def test_synth_phase1_breakdown_exits_numerical(tmp_path, capsys, fir_length):
    """On this three-mode LP the dense simplex loses accuracy in phase 1; the
    artificial sum leaving its range [0, sum of the artificial right-hand
    sides] ends the run with exit 4 within seconds instead of pivoting on."""
    cfg = demo.demo_config_dict()
    cfg["attack"].update(patterns=[[1, 2], [1], [2]], initial=[1, 2], padding_mode=2)
    cfg["synthesis"].update(M=2, N=fir_length)
    path = tmp_path / "three_modes.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["synth", str(path), "--out", str(tmp_path / "out.json")]) == 4
    assert time.perf_counter() - t0 < 60
    assert "phase-1 objective" in capsys.readouterr().err


def test_simulate_worst_reaches_gamma(nominal_bundle, tmp_path, capsys):
    trace_path = str(tmp_path / "trace.csv")
    assert main(["simulate", nominal_bundle, "--horizon", "12",
                 "--trace", trace_path]) == 0
    out = capsys.readouterr().out
    sup = float([ln for ln in out.splitlines() if ln.startswith("sup_error")][0].split("=")[1])
    assert abs(sup - 5.0275) <= 1e-4
    with open(trace_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert {"t", "sigma", "x_0", "y_0", "xhat_0", "e_0"} <= set(rows[0])


def test_simulate_default_sigma_must_be_admissible(tmp_path, capsys):
    # padding mode 0 is not an initial mode, so the default 000000 is not admissible
    cfg = demo.demo_config_dict()
    cfg["attack"].update(automaton=[[1, 1], [1, 0]], initial=[1])
    cfg["synthesis"]["N"] = 3
    cpath = tmp_path / "restricted.json"
    cpath.write_text(json.dumps(cfg))
    out = str(tmp_path / "restricted.bundle.json")
    assert main(["synth", str(cpath), "--out", out]) == 0
    capsys.readouterr()
    assert main(["simulate", out, "--horizon", "6"]) == 2
    assert "--sigma" in capsys.readouterr().err
    assert main(["simulate", out, "--sigma", "1,0,1,0,1,0"]) == 0


def test_simulate_singular_lag0_exits_numerical(nominal_bundle, capsys):
    # Z = 0 (so T = -Z = 0) and I + Q0 of rank 2 make the observer's lag-0
    # solve singular
    bundle = json.load(open(nominal_bundle))
    for fir in ("Q", "Z", "T"):
        for entry in bundle[fir]["entries"]:
            entry["matrix"] = np.zeros_like(entry["matrix"]).tolist()
    rank_deficient = np.arange(1.0, 10.0).reshape(3, 3)
    bundle["Q"]["entries"][0]["matrix"] = (rank_deficient - np.eye(3)).tolist()
    # the margin load_bundle recomputes: 1 - 23, the largest absolute row sum of Q0
    bundle["lag0_margin"] = -22.0
    with open(nominal_bundle, "w") as fh:
        json.dump(bundle, fh)
    assert main(["simulate", nominal_bundle, "--horizon", "3"]) == 4
    assert "singular lag-0 solve" in capsys.readouterr().err


def test_simulate_zero_scenario(nominal_bundle, tmp_path, capsys):
    scen = {"sigma": [0] * 6, "w": [[0.0, 0.0]] * 6, "x0": [0.0, 0.0, 0.0]}
    spath = tmp_path / "scen.json"
    spath.write_text(json.dumps(scen))
    assert main(["simulate", nominal_bundle, "--scenario", str(spath)]) == 0
    out = capsys.readouterr().out
    sup = float([ln for ln in out.splitlines() if ln.startswith("sup_error")][0].split("=")[1])
    assert sup == 0.0


def test_attack_command(nominal_bundle, capsys):
    assert main(["attack", nominal_bundle, "--horizon", "8"]) == 0
    out = capsys.readouterr().out
    assert "sigma*" in out and "certified_bound" in out
    value = float([ln for ln in out.splitlines() if ln.startswith("value")][0].split("=")[1])
    assert abs(value - 5.0275) <= 1e-4


@pytest.mark.parametrize("command, horizon", [
    ("attack", "-3"), ("attack", "0"), ("simulate", "0"), ("simulate", "-2"),
    ("norm", "0"), ("norm", "-1"),
])
def test_nonpositive_horizon_rejected(nominal_bundle, capsys, command, horizon):
    assert main([command, nominal_bundle, "--horizon", horizon]) == 2
    assert "--horizon" in capsys.readouterr().err


@pytest.mark.parametrize("command, source", [
    ("norm", "sigma"), ("simulate", "sigma"), ("simulate", "scenario"),
])
def test_horizon_must_equal_sequence_length(nominal_bundle, tmp_path, capsys, command, source):
    """--horizon given with --sigma or a scenario must equal the sequence's
    length; a 2-step sequence with --horizon 3 used to run 2 steps and exit 0."""
    if source == "sigma":
        given = ["--sigma", "0,0"]
    else:
        path = tmp_path / "scen.json"
        path.write_text(json.dumps({"sigma": [0, 0], "w": [[0.0, 0.0]] * 2}))
        given = ["--scenario", str(path)]
    argv = [command, nominal_bundle] + given
    assert main(argv) == 0
    alone = capsys.readouterr()
    assert main(argv + ["--horizon", "2"]) == 0
    assert capsys.readouterr() == alone
    for horizon in ("3", "1"):
        assert main(argv + ["--horizon", horizon]) == 2
        captured = capsys.readouterr()
        assert "--horizon" in captured.err and captured.out == ""


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--sigma"), ("norm", "--samples"),
])
def test_ignored_flag_is_rejected(nominal_bundle, tmp_path, capsys, command, flag):
    """simulate ran the scenario and ignored --sigma; norm measured --sigma
    alone and ignored --samples; both exited 0."""
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"sigma": [0, 0], "w": [[0.0, 0.0]] * 2}))
    given = {"simulate": ["--scenario", str(path), "--sigma", "0,0"],
             "norm": ["--sigma", "0,0", "--samples", "5"]}[command]
    assert main([command, nominal_bundle] + given) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, name", [
    (["validate", "{dir}"], "{dir}"),
    (["validate", "{binary}"], "{binary}"),
    (["synth", "{config}", "--out", "{missing}/b.json"], "--out"),
    (["synth", "{config}", "--dump-lp", "{missing}/x.lp"], "--dump-lp"),
    (["simulate", "{bundle}", "--trace", "{missing}/t.csv"], "--trace"),
], ids=["validate-dir", "validate-binary", "synth-out", "synth-dump-lp", "simulate-trace"])
def test_unusable_paths_exit_2_naming_them(nominal_config, nominal_bundle, tmp_path, capsys,
                                           argv, name):
    """A directory given as a config, or an output path in a missing folder,
    used to end in a traceback; a config that is not UTF-8 exited 2 without
    naming its path."""
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    paths = {"dir": str(tmp_path), "binary": str(tmp_path / "binary.json"),
             "config": nominal_config, "bundle": nominal_bundle,
             "missing": str(tmp_path / "missing")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert f"error: {name.format(**paths)}: " in capsys.readouterr().err


def test_attack_long_single_mode_horizon(nominal_bundle, capsys):
    # one mode passes the mode_count ** horizon cap at any horizon
    assert main(["attack", nominal_bundle, "--horizon", "1200"]) == 0
    out = capsys.readouterr().out
    assert "sigma*  = " + "0" * 1200 in out
    value = float([ln for ln in out.splitlines() if ln.startswith("value")][0].split("=")[1])
    assert abs(value - 5.0275) <= 1e-4


@pytest.mark.parametrize("argv, name, unit", [
    (["simulate", "{bundle}", "--horizon", "{over}"], "--horizon", "steps"),
    (["norm", "{bundle}", "--horizon", "{over}"], "--horizon", "steps"),
    (["attack", "{bundle}", "--horizon", "{over}", "--strategy", "greedy"], "--horizon", "steps"),
    (["attack", "{bundle}", "--horizon", "{over}"], "--horizon", "steps"),
    (["norm", "{bundle}", "--samples", "{over}"], "--samples", "sequences"),
    (["norm", "{bundle}", "--sigma", "{sigma}"], "--sigma", "modes"),
    (["simulate", "{bundle}", "--sigma", "{sigma}"], "--sigma", "modes"),
    (["simulate", "{bundle}", "--scenario", "{scenario}"], "scenario.sigma", "modes"),
], ids=["simulate-horizon", "norm-horizon", "greedy-horizon", "exhaustive-horizon",
        "norm-samples", "norm-sigma", "simulate-sigma", "scenario-sigma"])
def test_sizes_over_the_sequence_budget_exit_2(nominal_bundle, tmp_path, capsys, monkeypatch,
                                               argv, name, unit):
    """One past SEQUENCE_BUDGET exits 2 naming the flag and the budget before
    any row is built; `simulate --horizon 100000000` ended in a MemoryError
    traceback."""
    over = SEQUENCE_BUDGET + 1
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"sigma": [0] * over, "w": [[0.0, 0.0]] * over}))
    for built in ("_sampled_norms", "worst_case_inputs", "make_trace", "attack_search"):
        monkeypatch.setattr(cli, built, lambda *args, **kwargs: pytest.fail("rows were built"))
    args = [arg.format(bundle=nominal_bundle, over=over, sigma=",".join(["0"] * over),
                       scenario=path) for arg in argv]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {name}: {over} {unit} exceed the budget of {SEQUENCE_BUDGET}\n"
    assert captured.out == ""


@pytest.mark.parametrize("key", ["verify_horizon", "verify_samples"])
def test_verification_over_the_sequence_budget_rejected(tmp_path, capsys, key):
    cfg = demo.nominal_config_dict()
    cfg["synthesis"][key] = SEQUENCE_BUDGET
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["validate", str(cpath)]) == 0
    capsys.readouterr()
    cfg["synthesis"][key] = SEQUENCE_BUDGET + 1
    cpath.write_text(json.dumps(cfg))
    assert main(["validate", str(cpath)]) == 2
    assert capsys.readouterr().err == (f"error: synthesis.{key}: {key} must be at most "
                                       f"{SEQUENCE_BUDGET}, the sequence budget\n")


def test_sizes_at_the_sequence_budget_run(nominal_bundle, capsys):
    assert main(["attack", nominal_bundle, "--horizon", str(SEQUENCE_BUDGET),
                 "--strategy", "greedy"]) == 0
    assert "sigma*  = " + "0" * SEQUENCE_BUDGET in capsys.readouterr().out
    assert main(["norm", nominal_bundle, "--samples", str(SEQUENCE_BUDGET),
                 "--horizon", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == SEQUENCE_BUDGET + 1


def test_lp_over_the_byte_budget_exits_2(nominal_config, tmp_path, capsys, monkeypatch):
    """synth counts the LP's dense rows after deduplication and refuses them,
    before building one, when they take more than LP_BYTE_BUDGET bytes:
    the switching demo at M=7 N=2 needed 10754 x 7298 rows (628 MB) and a
    tableau as large.  The nominal LP runs at its exact byte count."""
    plant, model, automaton, config, _ = parse_problem(demo.nominal_config_dict())
    lp = synthesis.assemble_lp(plant, model, automaton, config,
                               synthesis.decision_variables(automaton, config, plant.n, model.p))
    rows, cols = len(lp.constraints), lp.variable_count
    monkeypatch.setattr(synthesis, "LP_BYTE_BUDGET", rows * cols * 8)
    assert main(["synth", nominal_config, "--out", str(tmp_path / "at.json")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(synthesis, "LP_BYTE_BUDGET", rows * cols * 8 - 1)
    monkeypatch.setattr(synthesis, "_dense_rows", lambda *args: pytest.fail("rows were built"))
    out = tmp_path / "over.json"
    assert main(["synth", nominal_config, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: synthesis.M/synthesis.N: M=1 and N=2 give an LP of {rows} x {cols} dense "
        f"rows, {rows * cols * 8} bytes, above the budget of {rows * cols * 8 - 1}\n")
    assert captured.out == "" and not out.exists()


class _Enumerated(Exception):
    """Raised in place of `synthesis._windows`: the run passed the window budget."""


def _enumerate(*args):
    raise _Enumerated


def test_window_terms_over_the_byte_budget_exit_2(tmp_path, capsys, monkeypatch):
    """synth counts the windows from the automaton and refuses, before
    `_windows` enumerates one, when the arrays `_kernel_terms` would build
    for them take more than LP_BYTE_BUDGET bytes: the switching demo at
    M=11 N=2 built every window's forms, peaking at 99 MB, before its dense
    rows were refused.  At the demo's exact byte count the run reaches the
    enumeration; one byte less exits 2 without it.  The pinned demo LPs run
    in the solver tests under the default budget."""
    cfg = demo.demo_config_dict()
    # M=3 N=8 relaxed, whose 123 MB of dense rows run, is inside the budget
    plant, model, automaton, config, _ = parse_problem(dict(cfg, synthesis=dict(
        cfg["synthesis"], M=3, N=8, mode="relaxed", eps_bar=0.1)))
    bound = synthesis._history_bound(automaton, config.window)
    assert synthesis._kernel_term_bytes(plant, model, 8, bound) <= synthesis.LP_BYTE_BUDGET
    path = tmp_path / "switching.json"
    path.write_text(json.dumps(cfg))
    plant, model, automaton, config, _ = parse_problem(cfg)
    variables = synthesis.decision_variables(automaton, config, plant.n, model.p)
    windows, taps, tap_ids = synthesis._windows(automaton, config)
    perf, res = (synthesis._kernel_terms(plant, model, kind, windows,
                                         variables.history_ids(taps)[tap_ids], variables)
                 for kind in (synthesis._PERFORMANCE, synthesis._RESIDUAL))
    # each kind's kernel-column ids and coefficients, and its Q ids: the
    # performance x0 block's ids, an array the residual kind builds too
    q_ids = perf[1][0].nbytes
    built = sum(var.nbytes + coeff.nbytes + q_ids for var, coeff, _ in (perf[0], res[0]))
    # 2^5 interior windows of N=5 modes and 2 + 4 + 8 + 16 startup windows,
    # 32 of them repeating interior ones
    assert len(windows) == 32
    need = built // 32 * 62
    assert synthesis._kernel_term_bytes(plant, model, config.fir_length, 62) == need
    monkeypatch.setattr(synthesis, "_windows", _enumerate)
    monkeypatch.setattr(synthesis, "LP_BYTE_BUDGET", need)
    out = tmp_path / "out.json"
    with pytest.raises(_Enumerated):
        main(["synth", str(path), "--out", str(out)])
    capsys.readouterr()
    monkeypatch.setattr(synthesis, "LP_BYTE_BUDGET", need - 1)
    assert main(["synth", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: synthesis.M/synthesis.N: M=1 and N=5 give up to 62 windows, whose constraint "
        f"terms take {need} bytes, above the budget of {need - 1}\n")
    assert captured.out == "" and not out.exists()


def test_simulate_non_finite_error_exits_numerical(tmp_path, capsys):
    """Over 1600 steps the frozen switching design's simulated error
    overflows to nan, which simulate printed with exit 0; it now exits 4,
    naming --horizon, before writing the trace or printing a line."""
    trace = tmp_path / "trace.csv"
    with np.errstate(all="ignore"):
        code = main(["simulate", str(FROZEN / "switching_m1n5.json"), "--horizon", "1600",
                     "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and not trace.exists()
    assert captured.err.startswith("numerical failure: ") and "--horizon 1600" in captured.err
    assert "Traceback" not in captured.err


def test_example_command(capsys):
    code = main(["example"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nominal:" in out and "switching:" in out
    assert "5.0275" in out and "32.5" in out
    assert "label assumption" in out


def test_example_json_deterministic(capsys):
    assert main(["example", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["example", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["nominal"]["met"] and payload["switching"]["met"]


# sha256/16 of the stdout, stderr and files of the CLI commands below, on
# the demo configs: bundles, LP dumps, attack, norm, simulate and example.
CLI_OUTPUT_HASHES = {
    "attack nominal_m1n2 H1": "rc=0 out=f3cd0718e0449e08 err=e3b0c44298fc1c14",
    "attack nominal_m1n2 H10": "rc=0 out=cb98a089e7b6aa2b err=e3b0c44298fc1c14",
    "attack nominal_m1n2 H12": "rc=0 out=d6b3c4df28eec8a4 err=e3b0c44298fc1c14",
    "attack nominal_m1n2 H6": "rc=0 out=5f31a875408bb48b err=e3b0c44298fc1c14",
    "attack nominal_m1n2 greedy30": "rc=0 out=2f7406a8cd853677 err=e3b0c44298fc1c14",
    "attack relaxed_m1n5 H1": "rc=0 out=92ca6c60e4559285 err=e3b0c44298fc1c14",
    "attack relaxed_m1n5 H10": "rc=0 out=32082c723c57b421 err=e3b0c44298fc1c14",
    "attack relaxed_m1n5 H12": "rc=0 out=4aafd3e1319bdfdb err=e3b0c44298fc1c14",
    "attack relaxed_m1n5 H6": "rc=0 out=8fbea09810454ac6 err=e3b0c44298fc1c14",
    "attack relaxed_m1n5 greedy30": "rc=0 out=0b4270b8c3f49555 err=e3b0c44298fc1c14",
    "attack switching_m1n5 H1": "rc=0 out=7dfd95ff0aa0503a err=e3b0c44298fc1c14",
    "attack switching_m1n5 H10": "rc=0 out=c530fb1857046571 err=e3b0c44298fc1c14",
    "attack switching_m1n5 H12": "rc=0 out=49b24e1bee4c5191 err=e3b0c44298fc1c14",
    "attack switching_m1n5 H6": "rc=0 out=78484a78967dd4fc err=e3b0c44298fc1c14",
    "attack switching_m1n5 greedy30": "rc=0 out=287c6d9a44622aa5 err=e3b0c44298fc1c14",
    "attack switching_m2n4 H1": "rc=0 out=e117512c3c448da3 err=e3b0c44298fc1c14",
    "attack switching_m2n4 H10": "rc=0 out=de5a52de9e763f47 err=e3b0c44298fc1c14",
    "attack switching_m2n4 H12": "rc=0 out=fcb26e150e788d27 err=e3b0c44298fc1c14",
    "attack switching_m2n4 H6": "rc=0 out=828a9369dfe72540 err=e3b0c44298fc1c14",
    "attack switching_m2n4 greedy30": "rc=0 out=5c1e748c288aa97a err=e3b0c44298fc1c14",
    "bundle nominal_m1n2": "fa25f74c7519d99a",
    "bundle relaxed_m1n4": "0e29b366ca3f9d78",
    "bundle relaxed_m1n5": "2a0a1eee29a081a5",
    "bundle switching_m1n5": "becbac2bd56f725a",
    "bundle switching_m2n4": "c0e4083e9d40ce0d",
    "example": "rc=0 out=196c3ee1762fe885 err=e3b0c44298fc1c14",
    "example --json": "rc=0 out=ab1da2995d588939 err=e3b0c44298fc1c14",
    "lp nominal_m1n2": "ad0dc3845d5890bb",
    "lp relaxed_m1n4": "84be83b241d18b89",
    "lp relaxed_m1n5": "3a06777ea1ae4287",
    "lp switching_m1n5": "20930261ca3faf2d",
    "lp switching_m2n4": "b76659ad0501e3ed",
    "norm nominal_m1n2 h15": "rc=0 out=11f3dee4658da293 err=e3b0c44298fc1c14",
    "norm nominal_m1n2 sigma": "rc=2 out=e3b0c44298fc1c14 err=df000849e79bd253",
    "norm relaxed_m1n5 h15": "rc=0 out=6d9e442214a7a888 err=e3b0c44298fc1c14",
    "norm relaxed_m1n5 sigma": "rc=0 out=6eaf245bf88cd023 err=e3b0c44298fc1c14",
    "norm switching_m1n5 h15": "rc=0 out=f9891c357255fa65 err=e3b0c44298fc1c14",
    "norm switching_m1n5 sigma": "rc=0 out=89ce1e672601a270 err=e3b0c44298fc1c14",
    "norm switching_m2n4 h15": "rc=0 out=3210cddb00dac04b err=e3b0c44298fc1c14",
    "norm switching_m2n4 sigma": "rc=0 out=1500e72ab9b4644d err=e3b0c44298fc1c14",
    "simulate csv nominal_m1n2": "093f5d38383b6e9f",
    "simulate csv relaxed_m1n5": "c16ff209009edb5c",
    "simulate csv switching_m1n5": "6f85571ebd1cf43a",
    "simulate csv switching_m2n4": "3202ea81642f232d",
    "simulate nominal_m1n2": "rc=0 out=e83fcb6d25b133d2 err=e3b0c44298fc1c14",
    "simulate nominal_m1n2 sigma": "rc=2 out=e3b0c44298fc1c14 err=df000849e79bd253",
    "simulate relaxed_m1n5": "rc=0 out=c4fc08e5c1737261 err=e3b0c44298fc1c14",
    "simulate relaxed_m1n5 sigma": "rc=0 out=2c206e377b3d44fb err=e3b0c44298fc1c14",
    "simulate switching_m1n5": "rc=0 out=486e6a544c624a96 err=e3b0c44298fc1c14",
    "simulate switching_m1n5 sigma": "rc=0 out=cae546939cfbc829 err=e3b0c44298fc1c14",
    "simulate switching_m2n4": "rc=0 out=6af0405f871fc760 err=e3b0c44298fc1c14",
    "simulate switching_m2n4 sigma": "rc=0 out=2b4939fb2a600bdd err=e3b0c44298fc1c14",
    "synth nominal_m1n2": "rc=0 out=5f7eb3b8d87c14a2 err=e3b0c44298fc1c14",
    "synth relaxed_m1n4": "rc=0 out=5f1f6191d78b168b err=e3b0c44298fc1c14",
    "synth relaxed_m1n5": "rc=0 out=4c7b439d0acb7d84 err=e3b0c44298fc1c14",
    "synth switching_m1n5": "rc=0 out=7094ebaece69ae71 err=e3b0c44298fc1c14",
    "synth switching_m2n4": "rc=0 out=85cda3763b150c51 err=e3b0c44298fc1c14",
}


def _demo_configs() -> dict:
    """The five demo configs: nominal N=2; switching M=1 N=5 and M=2 N=4;
    relaxed eps_bar=0.1 at N=5 and N=4."""
    configs = {"nominal_m1n2": demo.nominal_config_dict(),
               "switching_m1n5": demo.demo_config_dict()}
    for name, synthesis in (("switching_m2n4", {"M": 2, "N": 4}),
                            ("relaxed_m1n5", {"mode": "relaxed", "eps_bar": 0.1}),
                            ("relaxed_m1n4", {"mode": "relaxed", "eps_bar": 0.1, "N": 4})):
        configs[name] = demo.demo_config_dict()
        configs[name]["synthesis"].update(synthesis)
    return configs


def test_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    """Every output byte of the CLI on the demo configs, by hash."""
    monkeypatch.chdir(tmp_path)

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    def run(*argv) -> str:
        code = main(list(argv))
        out, err = capsys.readouterr()
        return f"rc={code} out={digest(out.encode())} err={digest(err.encode())}"

    found = {}
    for name, config in _demo_configs().items():
        (tmp_path / f"{name}_config.json").write_text(json.dumps(config))
        found[f"synth {name}"] = run("synth", f"{name}_config.json", "--out", f"{name}.json",
                                     "--dump-lp", f"{name}.lp")
        found[f"bundle {name}"] = digest((tmp_path / f"{name}.json").read_bytes())
        found[f"lp {name}"] = digest((tmp_path / f"{name}.lp").read_bytes())
    for name in ("nominal_m1n2", "switching_m1n5", "switching_m2n4", "relaxed_m1n5"):
        bundle = f"{name}.json"
        for horizon in (1, 6, 10, 12):
            found[f"attack {name} H{horizon}"] = run("attack", bundle, "--horizon", str(horizon))
        found[f"attack {name} greedy30"] = run("attack", bundle, "--horizon", "30",
                                               "--strategy", "greedy")
        found[f"norm {name} h15"] = run("norm", bundle, "--horizon", "15")
        found[f"norm {name} sigma"] = run("norm", bundle, "--sigma", "0,1,0,1,1,0")
        found[f"simulate {name}"] = run("simulate", bundle, "--trace", f"{name}.csv")
        found[f"simulate csv {name}"] = digest((tmp_path / f"{name}.csv").read_bytes())
        found[f"simulate {name} sigma"] = run("simulate", bundle,
                                              "--sigma", "0,1,1,0,1,0,0,1,1,1")
    found["example"] = run("example")
    found["example --json"] = run("example", "--json")
    assert found == CLI_OUTPUT_HASHES
