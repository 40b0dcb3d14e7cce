"""Worst-case estimator synthesis as a linear program over switching FIR factors.

The estimator is parametrized by two FIR switching operators Q (state
feedback shape, n x n) and Z (measurement shape, n x p).  Two families of
affine constraint rows are built over all admissible trailing mode
windows: residual rows, which must vanish (exact mode) or stay below a
contraction bound (relaxed mode), and performance rows, whose worst
absolute row sum is the estimation-error peak gain to minimize.  The
recovered estimator is T = -Z; the observer gain factors are (Q, Z).

Only the LP is built from symbolic rows.  Once the taps are fixed,
`row_gains` evaluates the same kernel entries numerically from the tap
tables, vectorized over windows: each entry is its constant plus its
products summed left to right in row-builder term order, and each row's
absolute entries are summed left to right in row-builder entry order, so
the gains are the bits the symbolic rows would give.  `synthesize` takes
eps_achieved from it and `certify` takes gamma_rows and eps_rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operator_core as oc
from .lp_solver import EQ, LE, LinearProgram, solve
from .switched_model import (ChannelPlant, SwitchedOutputModel, SwitchingAutomaton,
                             SwitchingFIR, enumerate_histories, instantiate, lift_outputs)

__all__ = [
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesisInfeasibleError",
    "LinearForm",
    "ConstraintRow",
    "DecisionVariables",
    "decision_variables",
    "build_residual_rows",
    "build_performance_rows",
    "assemble_lp",
    "synthesize",
    "row_gains",
    "certify",
    "parametrization_residual",
    "residual_operator",
    "performance_operator",
    "sweep_relaxation",
]

MODE_EXACT = "exact"
MODE_RELAXED = "relaxed"


class SynthesisInfeasibleError(RuntimeError):
    """The constraint set admits no FIR factors at the requested length/relaxation."""


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs of the synthesis: tap memory M, FIR length N, relaxation and verification.

    An invalid value raises ValueError with a message that starts with the
    field's name.
    """

    memory: int = 1
    fir_length: int = 5
    mode: str = MODE_EXACT
    eps_bar: float = 0.0
    verify_horizon: int = 30
    verify_samples: int = 20

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if self.fir_length < 1:
            raise ValueError("fir_length must be >= 1")
        if self.mode not in (MODE_EXACT, MODE_RELAXED):
            raise ValueError(f"mode must be '{MODE_EXACT}' or '{MODE_RELAXED}'")
        if self.mode == MODE_RELAXED and not (0.0 <= self.eps_bar < 1.0):
            raise ValueError("eps_bar must lie in [0, 1)")
        if self.verify_horizon < 1:
            raise ValueError("verify_horizon must be >= 1")
        if self.verify_samples < 1:
            raise ValueError("verify_samples must be >= 1")

    @property
    def window(self) -> int:
        """Length of the extended history windows indexing the constraints."""
        return max(self.memory, self.fir_length)


@dataclass
class LinearForm:
    """Affine expression in the decision variables: sum coeffs[v]*x[v] + const."""

    coeffs: dict = field(default_factory=dict)
    const: float = 0.0

    def add_term(self, var: int, coeff: float) -> None:
        if coeff != 0.0:
            self.coeffs[var] = self.coeffs.get(var, 0.0) + coeff

    def key(self) -> tuple:
        return (tuple(sorted(self.coeffs.items())), self.const)


@dataclass(frozen=True)
class ConstraintRow:
    """One output row of a kernel operator along a fixed trailing mode window.

    entries holds (lag, input column, affine form) for every kernel entry
    of the row; the row's gain is the sum of absolute entry values.
    """

    history: tuple
    row_index: int
    kind: str  # "residual" | "performance"
    entries: tuple


class DecisionVariables:
    """Canonical numbering of the Q/Z coefficient entries."""

    def __init__(self, histories, memory: int, fir_length: int, n: int, p: int):
        self.memory = memory
        self.fir_length = fir_length
        self.n = n
        self.p = p
        self.histories = [tuple(h) for h in histories]
        self.index: dict[tuple, int] = {}
        for hist in self.histories:
            for lag in range(fir_length):
                for r in range(n):
                    for c in range(n):
                        self.index[("Q", hist, lag, r, c)] = len(self.index)
                for r in range(n):
                    for c in range(p):
                        self.index[("Z", hist, lag, r, c)] = len(self.index)

    @property
    def count(self) -> int:
        return len(self.index)

    def var(self, kind: str, hist: tuple, lag: int, r: int, c: int) -> int:
        return self.index[(kind, hist, lag, r, c)]

    def unpack(self, x: np.ndarray) -> tuple[SwitchingFIR, SwitchingFIR]:
        """Split a solution vector into the Q and Z switching FIR operators."""
        q_coeffs, z_coeffs = {}, {}
        for hist in self.histories:
            for lag in range(self.fir_length):
                qm = np.zeros((self.n, self.n))
                zm = np.zeros((self.n, self.p))
                for r in range(self.n):
                    for c in range(self.n):
                        qm[r, c] = x[self.index[("Q", hist, lag, r, c)]]
                    for c in range(self.p):
                        zm[r, c] = x[self.index[("Z", hist, lag, r, c)]]
                q_coeffs[(hist, lag)] = qm
                z_coeffs[(hist, lag)] = zm
        Q = SwitchingFIR(self.memory, self.fir_length, self.n, self.n, q_coeffs)
        Z = SwitchingFIR(self.memory, self.fir_length, self.p, self.n, z_coeffs)
        return Q, Z


def decision_variables(automaton: SwitchingAutomaton, config: SynthesisConfig,
                       n: int, p: int) -> DecisionVariables:
    return DecisionVariables(enumerate_histories(automaton, config.memory),
                             config.memory, config.fir_length, n, p)


def _check_dims(plant: ChannelPlant, model: SwitchedOutputModel) -> None:
    if model.n != plant.n or model.m_w != plant.m_w:
        raise ValueError("plant and switched output model dimensions disagree")


def _kernel_rows(X: np.ndarray, mode_matrix, Y0: np.ndarray,
                 automaton: SwitchingAutomaton, config: SynthesisConfig,
                 variables: DecisionVariables):
    """Rows of shift(X) + Z Mbar + Q (shift(X) + Y0), Mbar the mode_matrix blocks.

    Yields (window, tap window, state row, entries) for every admissible
    extended window; entries is a list of (lag, input column, affine form).
    Lag k of a row reads the tap window anchored at the output time and the
    mode delivered k steps earlier.
    """
    n, q = X.shape
    p = variables.p
    M, N, L = config.memory, config.fir_length, config.window
    # Y0 is -I or 0: looping Q over its full columns would slow the row build
    y0_terms = [[(r, Y0[r, col]) for r in range(n) if Y0[r, col] != 0.0] for col in range(q)]
    for h in enumerate_histories(automaton, L):
        hm = h[L - M:]
        for i in range(n):
            entries = []
            for k in range(N + 1):
                M_k = mode_matrix(h[L - 1 - k]) if k <= N - 1 else None
                for col in range(q):
                    form = LinearForm()
                    if k == 1:
                        form.const += X[i, col]
                    if k <= N - 1:
                        for c in range(p):
                            form.add_term(variables.var("Z", hm, k, i, c), M_k[c, col])
                        for r, y0 in y0_terms[col]:
                            form.add_term(variables.var("Q", hm, k, i, r), y0)
                    if 1 <= k <= N:
                        for r in range(n):
                            form.add_term(variables.var("Q", hm, k - 1, i, r), X[r, col])
                    entries.append((k, col, form))
            yield h, hm, i, entries


def build_residual_rows(plant: ChannelPlant, model: SwitchedOutputModel,
                        automaton: SwitchingAutomaton, config: SynthesisConfig,
                        variables: DecisionVariables | None = None) -> list[ConstraintRow]:
    """Rows of the contraction operator shift(A) + Z Cbar + Q (shift(A) - I).

    One row per admissible extended window and state component; entries are
    affine in the Q/Z coefficients.
    """
    _check_dims(plant, model)
    if variables is None:
        variables = decision_variables(automaton, config, plant.n, model.p)
    return [ConstraintRow(h, i, "residual", tuple(entries))
            for h, _, i, entries in _kernel_rows(plant.A, model.C, -np.eye(plant.n),
                                                 automaton, config, variables)]


def build_performance_rows(plant: ChannelPlant, model: SwitchedOutputModel,
                           automaton: SwitchingAutomaton, config: SynthesisConfig,
                           variables: DecisionVariables | None = None) -> list[ConstraintRow]:
    """Rows of the error gain operator [shift(B) + Z Dbar + Q shift(B), I + Q].

    Input columns are stacked: disturbance channels first, then the
    initial-condition channels.
    """
    _check_dims(plant, model)
    if variables is None:
        variables = decision_variables(automaton, config, plant.n, model.p)
    n, m_w = plant.n, plant.m_w
    rows = []
    for h, hm, i, entries in _kernel_rows(plant.B, model.D, np.zeros((n, m_w)),
                                          automaton, config, variables):
        for k in range(config.fir_length):
            for j in range(n):
                form = LinearForm()
                if k == 0 and i == j:
                    form.const += 1.0
                form.add_term(variables.var("Q", hm, k, i, j), 1.0)
                entries.append((k, m_w + j, form))
        rows.append(ConstraintRow(h, i, "performance", tuple(entries)))
    return rows


def assemble_lp(residual_rows, performance_rows, config: SynthesisConfig,
                variables: DecisionVariables) -> LinearProgram:
    """Min-gamma LP: per performance row, the absolute entry values sum to
    at most gamma; residual entries vanish (exact) or their row sums stay
    below eps_bar (relaxed).

    Structurally identical affine entries share one absolute-value slack,
    and identical rows collapse, so the LP stays small while covering
    every admissible window.
    """
    if not performance_rows:
        raise ValueError("no performance rows; nothing to optimize")
    nvar = variables.count
    gamma = nvar
    slack_ids: dict[tuple, int] = {}
    slack_forms: list[LinearForm] = []

    def slack_of(form: LinearForm) -> int:
        key = form.key()
        sid = slack_ids.get(key)
        if sid is None:
            sid = len(slack_forms)
            slack_ids[key] = sid
            slack_forms.append(form)
        return sid

    perf_row_slacks: dict[tuple, list[int]] = {}
    for row in performance_rows:
        sids = [slack_of(form) for _, _, form in row.entries]
        perf_row_slacks.setdefault(tuple(sorted(sids)), sids)

    relaxed = config.mode == MODE_RELAXED
    res_eqs: dict[tuple, LinearForm] = {}
    res_row_slacks: dict[tuple, list[int]] = {}
    for row in residual_rows:
        if relaxed:
            sids = [slack_of(form) for _, _, form in row.entries]
            res_row_slacks.setdefault(tuple(sorted(sids)), sids)
        else:
            for _, _, form in row.entries:
                res_eqs.setdefault(form.key(), form)

    nslack = len(slack_forms)
    total = nvar + 1 + nslack
    lp = LinearProgram(
        variable_count=total,
        objective=np.concatenate([np.zeros(nvar), [1.0], np.zeros(nslack)]),
        bounds=[(None, None)] * nvar + [(0.0, None)] * (1 + nslack),
    )

    for sid, form in enumerate(slack_forms):
        # s >= form and s >= -form
        up = np.zeros(total)
        for v, a in form.coeffs.items():
            up[v] = a
        up[nvar + 1 + sid] = -1.0
        lp.add(up, LE, -form.const)
        dn = np.zeros(total)
        for v, a in form.coeffs.items():
            dn[v] = -a
        dn[nvar + 1 + sid] = -1.0
        lp.add(dn, LE, form.const)

    for sids in perf_row_slacks.values():
        row = np.zeros(total)
        for sid in sids:
            row[nvar + 1 + sid] += 1.0
        row[gamma] = -1.0
        lp.add(row, LE, 0.0)

    if relaxed:
        for sids in res_row_slacks.values():
            row = np.zeros(total)
            for sid in sids:
                row[nvar + 1 + sid] += 1.0
            lp.add(row, LE, config.eps_bar)
    else:
        for form in res_eqs.values():
            row = np.zeros(total)
            for v, a in form.coeffs.items():
                row[v] = a
            lp.add(row, EQ, -form.const)

    return lp


@dataclass(frozen=True)
class SynthesisResult:
    """Optimal gain, achieved contraction, certified bound and the FIR factors."""

    gamma_bar: float
    eps_achieved: float
    certified_bound: float
    Q: SwitchingFIR
    Z: SwitchingFIR
    T: SwitchingFIR
    status: str
    mode: str
    lag0_margin: float


def _gathered_taps(fir: SwitchingFIR, histories, fir_length: int) -> np.ndarray:
    """(history, lag, out, in) array of the taps at the given tap histories."""
    taps = np.empty((len(histories), fir_length, fir.out_dim, fir.in_dim))
    for a, hist in enumerate(histories):
        for k in range(fir_length):
            taps[a, k] = fir.tap(hist, k)
    return taps


def _kernel_gains(X: np.ndarray, mode_mats: np.ndarray, Y0: np.ndarray, lag_modes: np.ndarray,
                  Qw: np.ndarray, Zw: np.ndarray) -> np.ndarray:
    """Absolute row sums of shift(X) + Z Mbar + Q (shift(X) + Y0), one row per
    (window, state row), at the per-window taps Qw (window, lag, n, n) and
    Zw (window, lag, n, p); lag_modes[:, k] is the mode delivered k steps
    before the output time.

    Entry (k, col) of row i adds, in _kernel_rows term order, Z_k[i, c] M_k[c, col]
    over c, Q_k[i, r] Y0[r, col] over the rows r where Y0 has a nonzero, and
    Q_{k-1}[i, r] X[r, col] over r, then adds its constant X[i, col] at lag 1.
    A zero coefficient _kernel_rows leaves out adds a signed zero here, which
    changes no sum that is not zero and only the sign of one that is.
    """
    nw, N, n, p = Zw.shape
    gains = np.zeros((nw, n))
    y0_rows = [r for r in range(n) if Y0[r].any()]
    for k in range(N + 1):
        entry = np.zeros((nw, n, X.shape[1]))
        if k <= N - 1:
            M_k = mode_mats[lag_modes[:, k]]
            for c in range(p):
                entry += Zw[:, k, :, c, None] * M_k[:, None, c, :]
            for r in y0_rows:
                entry += Qw[:, k, :, r, None] * Y0[r]
        if k >= 1:
            for r in range(n):
                entry += Qw[:, k - 1, :, r, None] * X[r]
        if k == 1:
            entry = X + entry
        for col in range(X.shape[1]):
            gains += np.abs(entry[:, :, col])
    return gains


def row_gains(plant: ChannelPlant, model: SwitchedOutputModel,
              automaton: SwitchingAutomaton, config: SynthesisConfig,
              Q: SwitchingFIR, Z: SwitchingFIR) -> tuple[np.ndarray, np.ndarray]:
    """Absolute row sums of the residual and performance rows at the factors (Q, Z).

    Returns (residual_gains, performance_gains) in build_residual_rows and
    build_performance_rows row order (window, then state row), without
    building the rows: the kernel entries are formed from the tap tables,
    vectorized over windows, with the products and additions of the symbolic
    rows in the same order, and each row's absolute entries are summed left
    to right by lag, then column (performance rows then add the I + Q block
    the same way).  Every gain is bit-identical to evaluating the symbolic
    row at the packed taps.
    """
    _check_dims(plant, model)
    n, M, N, L = plant.n, config.memory, config.fir_length, config.window
    windows = enumerate_histories(automaton, L)
    tap_index: dict[tuple, int] = {}
    hist_ids = [tap_index.setdefault(h[L - M:], len(tap_index)) for h in windows]
    Qw = _gathered_taps(Q, list(tap_index), N)[hist_ids]
    Zw = _gathered_taps(Z, list(tap_index), N)[hist_ids]
    # column k: the mode delivered k steps before the output time
    lag_modes = np.array(windows, dtype=np.intp).reshape(len(windows), L)[:, ::-1][:, :N]
    C_modes = np.array([model.C(j) for j in range(model.mode_count)])
    D_modes = np.array([model.D(j) for j in range(model.mode_count)])
    residual = _kernel_gains(plant.A, C_modes, -np.eye(n), lag_modes, Qw, Zw)
    performance = _kernel_gains(plant.B, D_modes, np.zeros((n, plant.m_w)), lag_modes, Qw, Zw)
    for k in range(N):
        block = np.eye(n) + Qw[:, k] if k == 0 else Qw[:, k]
        for j in range(n):
            performance += np.abs(block[:, :, j])
    return residual.reshape(-1), performance.reshape(-1)


def _lag0_margin(Z: SwitchingFIR, Q: SwitchingFIR, model: SwitchedOutputModel) -> float:
    """1 - max row sum of the lag-0 contraction block, over all tap windows."""
    worst = 0.0
    for hist in Z.histories():
        j = hist[-1]
        block = Z.tap(hist, 0) @ model.C(j) - Q.tap(hist, 0)
        worst = max(worst, float(np.max(np.sum(np.abs(block), axis=1))))
    return 1.0 - worst


def synthesize(plant: ChannelPlant, model: SwitchedOutputModel,
               automaton: SwitchingAutomaton, config: SynthesisConfig) -> SynthesisResult:
    """Build the rows, solve the LP, unpack the factors and certify them.

    Raises SynthesisInfeasibleError when no FIR factors of the requested
    length satisfy the residual constraints; increasing fir_length or the
    relaxation bound enlarges the feasible set.
    """
    _check_dims(plant, model)
    variables = decision_variables(automaton, config, plant.n, model.p)
    residual_rows = build_residual_rows(plant, model, automaton, config, variables)
    performance_rows = build_performance_rows(plant, model, automaton, config, variables)
    lp = assemble_lp(residual_rows, performance_rows, config, variables)
    sol = solve(lp)
    if sol.status == "infeasible":
        raise SynthesisInfeasibleError(
            f"no switching FIR factors with memory {config.memory} and length "
            f"{config.fir_length} satisfy the constraints in {config.mode} mode; "
            "increase fir_length or switch to relaxed mode with a larger eps_bar")
    if sol.status != "optimal":
        raise SynthesisInfeasibleError(f"LP solver returned status '{sol.status}'")

    Q, Z = variables.unpack(sol.values[:variables.count])
    T = SwitchingFIR(Z.memory, Z.fir_length, Z.in_dim, Z.out_dim,
                     {key: -mat for key, mat in Z.coeffs.items()}, output_only=True)
    gamma_bar = float(sol.objective)
    eps_achieved = float(np.max(row_gains(plant, model, automaton, config, Q, Z)[0]))
    if config.mode == MODE_EXACT:
        certified = gamma_bar
    else:
        certified = gamma_bar + eps_achieved * gamma_bar / (1.0 - eps_achieved)
    return SynthesisResult(
        gamma_bar=gamma_bar,
        eps_achieved=eps_achieved,
        certified_bound=certified,
        Q=Q, Z=Z, T=T,
        status="optimal",
        mode=config.mode,
        lag0_margin=_lag0_margin(Z, Q, model),
    )


def residual_operator(plant: ChannelPlant, Q: SwitchingFIR, Z: SwitchingFIR,
                      model: SwitchedOutputModel, sigma, horizon: int,
                      padding_mode: int = 0) -> oc.TruncatedOperator:
    """shift(A) + Z Cbar + Q (shift(A) - I) frozen along sigma, via operator algebra."""
    n = plant.n
    lam_a = oc.compose(oc.delay(1, n, horizon), oc.make_diagonal(plant.A, horizon))
    Cbar, _ = lift_outputs(model, sigma, horizon)
    Q_op = instantiate(Q, sigma, horizon, padding_mode)
    Z_op = instantiate(Z, sigma, horizon, padding_mode)
    lam_a_minus_i = oc.add(lam_a, oc.scale(oc.identity(n, horizon), -1.0))
    return oc.add(lam_a, oc.add(oc.compose(Z_op, Cbar), oc.compose(Q_op, lam_a_minus_i)))


def performance_operator(plant: ChannelPlant, Q: SwitchingFIR, Z: SwitchingFIR,
                         model: SwitchedOutputModel, sigma, horizon: int,
                         padding_mode: int = 0) -> oc.TruncatedOperator:
    """[shift(B) + Z Dbar + Q shift(B), I + Q] frozen along sigma.

    Maps the stacked (disturbance, initial-condition) input to the
    estimation error when the residual vanishes.
    """
    n = plant.n
    lam_b = oc.compose(oc.delay(1, n, horizon), oc.make_diagonal(plant.B, horizon))
    _, Dbar = lift_outputs(model, sigma, horizon)
    Q_op = instantiate(Q, sigma, horizon, padding_mode)
    Z_op = instantiate(Z, sigma, horizon, padding_mode)
    w_block = oc.add(lam_b, oc.add(oc.compose(Z_op, Dbar), oc.compose(Q_op, lam_b)))
    x0_block = oc.add(oc.identity(n, horizon), Q_op)
    return oc.hstack(w_block, x0_block)


def parametrization_residual(T: SwitchingFIR, Q: SwitchingFIR, plant: ChannelPlant,
                             model: SwitchedOutputModel, sigma, horizon: int,
                             padding_mode: int = 0) -> float:
    """Gain of T Cbar + X (shift(A) - I) - I with X = -I - Q.

    Vanishes exactly when (T, -Q - I) parametrize a zero-residual stable
    estimator; bounded by the relaxation level otherwise.
    """
    n = plant.n
    lam_a = oc.compose(oc.delay(1, n, horizon), oc.make_diagonal(plant.A, horizon))
    Cbar, _ = lift_outputs(model, sigma, horizon)
    T_op = instantiate(T, sigma, horizon, padding_mode)
    Q_op = instantiate(Q, sigma, horizon, padding_mode)
    eye = oc.identity(n, horizon)
    X_op = oc.scale(oc.add(eye, Q_op), -1.0)
    lam_a_minus_i = oc.add(lam_a, oc.scale(eye, -1.0))
    total = oc.add(oc.add(oc.compose(T_op, Cbar), oc.compose(X_op, lam_a_minus_i)),
                   oc.scale(eye, -1.0))
    return oc.induced_norm(total)


def certify(plant: ChannelPlant, model: SwitchedOutputModel,
            automaton: SwitchingAutomaton, config: SynthesisConfig,
            result: SynthesisResult, seed: int = 0) -> dict:
    """Independent check of the synthesized factors.

    gamma_rows and eps_rows are the largest performance and residual row
    gains at the factors, evaluated numerically by `row_gains` straight
    from the tap tables (the same bits the symbolic LP rows give, with no
    decision vector or rows built).  The residual/performance operators
    are also measured along sampled admissible sequences via the kernel
    algebra, a path independent of the rows.
    """
    res_gains, perf_gains = row_gains(plant, model, automaton, config, result.Q, result.Z)
    rng = np.random.default_rng(seed)
    H = config.verify_horizon
    max_res, max_perf = 0.0, 0.0
    for _ in range(config.verify_samples):
        sigma = automaton.random_sequence(H, rng)
        E = residual_operator(plant, result.Q, result.Z, model, sigma, H,
                              automaton.padding_mode)
        Phi = performance_operator(plant, result.Q, result.Z, model, sigma, H,
                                   automaton.padding_mode)
        max_res = max(max_res, oc.induced_norm(E))
        max_perf = max(max_perf, oc.induced_norm(Phi))
    return {
        "gamma_rows": float(np.max(perf_gains)),
        "eps_rows": float(np.max(res_gains)),
        "sampled_sigmas": config.verify_samples,
        "verify_horizon": H,
        "max_sampled_residual_norm": max_res,
        "max_sampled_performance_norm": max_perf,
        "seed": seed,
    }


def sweep_relaxation(plant: ChannelPlant, model: SwitchedOutputModel,
                     automaton: SwitchingAutomaton, config: SynthesisConfig,
                     eps_values) -> list[tuple[float, SynthesisResult | None]]:
    """Scalar sweep over the relaxation bound; None marks infeasible points."""
    out = []
    for eps in eps_values:
        cfg = SynthesisConfig(memory=config.memory, fir_length=config.fir_length,
                              mode=MODE_RELAXED, eps_bar=float(eps),
                              verify_horizon=config.verify_horizon,
                              verify_samples=config.verify_samples)
        try:
            out.append((float(eps), synthesize(plant, model, automaton, cfg)))
        except SynthesisInfeasibleError:
            out.append((float(eps), None))
    return out
