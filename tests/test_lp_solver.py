import dataclasses
import tracemalloc

import numpy as np
import pytest

from switchguard import lp_solver
from switchguard.lp_solver import (EQ, LE, LinearProgram, LpNumericalError, format_lp,
                                   solve)
from switchguard.synthesis import assemble_lp, decision_variables
from util import (dense_pivot, dense_tableau, full_ratio_row, ix_pivot, random_box_lp,
                  random_sparse_lp, random_standard_form_lp, vertex_minimum, vstack_drop_rows)


def test_minimize_above_lower_bound():
    # minimize x >= 0 above the lower bound 1, written as the row -x <= -1
    lp = LinearProgram(1, np.array([1.0]), bounds=[(0.0, None)])
    lp.add(np.array([-1.0]), LE, -1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert np.isclose(sol.objective, 1.0, atol=1e-12)
    assert np.isclose(sol.values[0], 1.0, atol=1e-12)


def test_minimize_with_inequality_row():
    # minimize x subject to -x <= -1 (i.e. x >= 1), x free
    lp = LinearProgram(1, np.array([1.0]))
    lp.add(np.array([-1.0]), LE, -1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert np.isclose(sol.objective, 1.0, atol=1e-9)


def test_infeasible_box():
    lp = LinearProgram(1, np.array([0.0]), bounds=[(0.0, None)])
    lp.add(np.array([1.0]), LE, -1.0)
    assert solve(lp).status == "infeasible"


@pytest.mark.parametrize("rel, rhs, status", [
    (EQ, 0.0, "optimal"), (LE, 1.0, "optimal"), (EQ, 1.0, "infeasible"), (LE, -1.0, "infeasible"),
])
def test_no_variables(rel, rhs, status):
    lp = LinearProgram(0, np.zeros(0))
    lp.add(np.zeros(0), rel, rhs)
    sol = solve(lp)
    assert sol.status == status
    assert sol.values.shape == (0,)
    if status == "optimal":
        assert sol.objective == 0.0


def test_unbounded():
    lp = LinearProgram(1, np.array([-1.0]), bounds=[(0.0, None)])
    assert solve(lp).status == "unbounded"


def test_equality_and_free_variables():
    # min x + y s.t. x + y = 2, x - y = 0 -> x = y = 1
    lp = LinearProgram(2, np.array([1.0, 1.0]))
    lp.add(np.array([1.0, 1.0]), EQ, 2.0)
    lp.add(np.array([1.0, -1.0]), EQ, 0.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.values, [1.0, 1.0], atol=1e-9)


def test_upper_bounds():
    # maximize x >= 0 below the upper bound 2.5, written as the row x <= 2.5
    lp = LinearProgram(1, np.array([-1.0]), bounds=[(0.0, None)])
    lp.add(np.array([1.0]), LE, 2.5)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert np.isclose(sol.values[0], 2.5, atol=1e-9)


@pytest.mark.parametrize("big", [1e8, -1e8])
def test_small_pivot_beside_large_column_entry(big):
    """min -x, x >= 0, with big x <= rhs and 0.5 x <= 1: the 0.5 entry is a
    genuine pivot however large the other entry of its column, and skipping
    it returns x = 10 (big > 0) or 'unbounded' (big < 0)."""
    lp = LinearProgram(1, np.array([-1.0]), bounds=[(0.0, None)])
    lp.add(np.array([big]), LE, 1e9 if big > 0 else 1.0)
    lp.add(np.array([0.5]), LE, 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert np.isclose(sol.values[0], 2.0, atol=1e-9)
    assert np.isclose(sol.objective, -2.0, atol=1e-9)


def _rows_lp(c, G, h) -> LinearProgram:
    """min c.x s.t. G x <= h, x free: a box LP with its box written as rows."""
    return LinearProgram(len(c), c, constraints=[(G[i], LE, h[i]) for i in range(len(h))])


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 9))
        c, A, b, lo, hi, G, h = random_box_lp(rng, n, m)
        status, oracle = vertex_minimum(c, G, h)
        assert status == "optimal"
        sol = solve(_rows_lp(c, G, h))
        assert sol.status == "optimal"
        assert np.isclose(sol.objective, oracle, atol=1e-6), (trial, sol.objective, oracle)
        checked += 1
    assert checked == 100


def test_constructed_infeasible_instances():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        c, A, b, lo, hi, G, h = random_box_lp(rng, n, 3)
        lp = _rows_lp(c, G, h)
        # contradictory pair: e_0 . x <= lo_0 - 1 while x_0 >= lo_0
        row = np.zeros(n)
        row[0] = 1.0
        lp.add(row, LE, lo[0] - 1.0)
        assert solve(lp).status == "infeasible"


def test_feasibility_certificate():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        c, A, b, lo, hi, G, h = random_box_lp(rng, n, m)
        sol = solve(_rows_lp(c, G, h))
        assert sol.status == "optimal"
        x = sol.values
        assert np.all(A @ x <= b + 1e-7)
        assert np.all(x >= lo - 1e-7)
        assert np.all(x <= hi + 1e-7)
        assert np.isclose(float(c @ x), sol.objective, atol=1e-9)


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(45)
    c, A, b, lo, hi, G, h = random_box_lp(rng, 4, 5)

    def fresh():
        return solve(_rows_lp(c.copy(), G.copy(), h.copy()))

    s1, s2 = fresh(), fresh()
    assert s1.values.tobytes() == s2.values.tobytes()
    assert s1.objective == s2.objective


def test_duality_spot_check():
    rng = np.random.default_rng(46)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        c, A, b, lo, hi, G, h = random_box_lp(rng, n, m)
        primal = LinearProgram(n, c)
        for i in range(G.shape[0]):
            primal.add(G[i], LE, h[i])
        vp = solve(primal)
        assert vp.status == "optimal"
        # dual of min c.x s.t. Gx <= h: min h.y s.t. G'y = -c, y >= 0; value = -primal
        rows_d = G.shape[0]
        dual = LinearProgram(rows_d, h, bounds=[(0.0, None)] * rows_d)
        for j in range(n):
            dual.add(G[:, j], EQ, -c[j])
        vd = solve(dual)
        assert vd.status == "optimal"
        assert np.isclose(vp.objective, -vd.objective, atol=1e-6)


def test_malformed_inputs_rejected():
    with pytest.raises(ValueError):
        LinearProgram(2, np.array([1.0]))
    lp = LinearProgram(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        lp.add(np.array([1.0]), LE, 0.0)
    with pytest.raises(ValueError):
        lp.add(np.array([1.0, 0.0]), ">=", 0.0)
    with pytest.raises(ValueError):
        LinearProgram(1, np.array([1.0]), constraints=[(np.array([1.0]), LE, np.inf)])


@pytest.mark.parametrize("rhs", [np.nan, np.inf, -np.inf])
def test_add_rejects_non_finite_rhs(rhs):
    lp = LinearProgram(1, np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        lp.add(np.array([1.0]), LE, rhs)
    assert lp.constraints == []
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(1, np.array([1.0]), constraints=[(np.array([1.0]), EQ, rhs)])


KINDS_MESSAGE = r"bounds\[{}\] must be \(None, None\) or \(0\.0, None\)"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(bad):
    """A non-finite coefficient or bound would reach the tableau: a NaN
    coefficient made solve report 'unbounded' with objective -inf, and a
    lower bound of -inf 'optimal' at -inf.  A non-finite bound is neither
    free nor nonnegative, so it is rejected with the other bounds."""
    lp = LinearProgram(1, np.array([1.0]))
    with pytest.raises(ValueError, match="constraint coefficients must be finite"):
        lp.add([bad], LE, 1.0)
    assert lp.constraints == []
    with pytest.raises(ValueError, match="constraint coefficients must be finite"):
        LinearProgram(1, np.array([1.0]), constraints=[([bad], EQ, 1.0)])
    with pytest.raises(ValueError, match="objective coefficients must be finite"):
        LinearProgram(1, [bad])
    for bounds in ([(bad, None)], [(None, bad)], [(0.0, bad)]):
        with pytest.raises(ValueError, match=KINDS_MESSAGE.format(0)):
            LinearProgram(1, np.array([1.0]), bounds=bounds)


@pytest.mark.parametrize("bound", [(1.0, None), (None, 0.0), (0.0, 2.5), (np.nan, None)])
def test_bounds_other_than_free_or_nonnegative_rejected(bound):
    """The solver takes free and nonnegative variables only; any other
    bound is a row, and the error names the variable."""
    with pytest.raises(ValueError, match=f"^{KINDS_MESSAGE.format(2)}$"):
        LinearProgram(3, np.zeros(3), bounds=[(None, None), (0.0, None), bound])


def test_numerical_error_is_distinct_type():
    assert issubclass(LpNumericalError, RuntimeError)
    assert not issubclass(LpNumericalError, ValueError)


def test_format_lp_text():
    lp = LinearProgram(2, np.array([1.0, -2.0]), bounds=[(0.0, None), (None, None)])
    lp.add(np.array([1.0, 1.0]), LE, 3.0)
    lp.add(np.array([1.0, -1.0]), EQ, 1.0)
    text = format_lp(lp, name="toy")
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    assert "<= 3" in text and "= 1" in text


def test_pivot_counts_per_phase():
    # the slack is the initial basis: no phase 1, one pivot to reach x = 2
    lp = LinearProgram(1, np.array([-1.0]), bounds=[(0.0, None)])
    lp.add(np.array([2.0]), LE, 4.0)
    assert solve(lp).pivots == (0, 1)
    # 2x = 2 has no unit column: one phase-1 pivot, and that vertex is optimal
    lp = LinearProgram(1, np.array([1.0]))
    lp.add(np.array([2.0]), EQ, 2.0)
    sol = solve(lp)
    assert sol.pivots == (1, 0)
    assert sol.bland_switches == (0, 0)


def _demo_lp(setup):
    plant, model, automaton, config = setup
    return assemble_lp(plant, model, automaton, config,
                       decision_variables(automaton, config, plant.n, model.p))


def _sparse_lp(seed: int) -> LinearProgram:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    c, rows, bounds = random_sparse_lp(rng, n, int(rng.integers(2, 25)))
    return LinearProgram(n, c, constraints=rows, bounds=bounds)


def _solve_dense(lp, monkeypatch) -> lp_solver.LpSolution:
    # the reference build (dense A, loop basis scan), pivot and row drop
    with monkeypatch.context() as patch:
        patch.setattr(lp_solver, "_tableau", dense_tableau)
        patch.setattr(lp_solver, "_pivot", dense_pivot)
        patch.setattr(lp_solver, "_drop_rows", vstack_drop_rows)
        return solve(lp)


def _assert_same(sol, ref):
    assert sol.status == ref.status
    assert sol.values.tobytes() == ref.values.tobytes()
    assert np.float64(sol.objective).tobytes() == np.float64(ref.objective).tobytes()  # NaN too
    assert sol.pivots == ref.pivots
    assert sol.bland_switches == ref.bland_switches


def _assert_same_solution(lp, monkeypatch):
    sol = solve(lp)
    _assert_same(sol, _solve_dense(lp, monkeypatch))
    return sol


# (pivots, bland_switches) per phase of the demo LPs.  The dense reference
# shares the phase-2 set-up with solve, so only these counts can see a
# change there.
DEMO_PIVOTS = {"nominal_setup": ((71, 2), (0, 0)), "switching_setup": ((908, 2), (3, 0))}

# the other three LPs of the benchmark's demo workloads: the switching
# config with these changes, and their (pivots, bland_switches) per phase
RELAXED = {"mode": "relaxed", "eps_bar": 0.1}
BENCH_LPS = {
    "switching_m2n4": ({"memory": 2, "fir_length": 4}, ((1188, 8), (4, 0))),
    "relaxed_m1n5": (RELAXED, ((911, 22), (4, 0))),
    "relaxed_m1n4": ({**RELAXED, "fir_length": 4}, ((833, 5), (3, 0))),
}


def _bench_lp(switching_setup, name: str) -> LinearProgram:
    plant, model, automaton, config = switching_setup
    return _demo_lp((plant, model, automaton, dataclasses.replace(config, **BENCH_LPS[name][0])))


@pytest.mark.parametrize("name", ["nominal_setup", "switching_setup"])
def test_solver_matches_dense_reference_on_demo(name, request, monkeypatch):
    sol = _assert_same_solution(_demo_lp(request.getfixturevalue(name)), monkeypatch)
    assert sol.status == "optimal"
    assert (sol.pivots, sol.bland_switches) == DEMO_PIVOTS[name]


@pytest.mark.parametrize("name", list(BENCH_LPS))
def test_benchmark_lp_pivot_paths_are_pinned(switching_setup, name):
    sol = solve(_bench_lp(switching_setup, name))
    assert sol.status == "optimal"
    assert (sol.pivots, sol.bland_switches) == BENCH_LPS[name][1]


def test_solver_matches_dense_reference_on_sparse_lps(monkeypatch):
    statuses = set()
    for seed in range(50):
        statuses.add(_assert_same_solution(_sparse_lp(seed), monkeypatch).status)
    assert statuses == {"optimal"}


def test_refactored_solve_matches_tableau_on_sparse_lps():
    """The fallback reaches the tableau's status and optimum on LPs both solve."""
    for seed in range(50):
        lp = _sparse_lp(seed)
        sol, ref = lp_solver._refactored_solve(lp), lp_solver._tableau_solve(lp)
        assert sol.status == ref.status
        assert np.isclose(sol.objective, ref.objective, rtol=1e-9, atol=1e-9)


def test_refactored_solve_statuses():
    for build, status in ((lambda: _rows_lp(np.array([1.0]), np.array([[1.0], [-1.0]]),
                                            np.array([0.0, -1.0])), "infeasible"),
                          (lambda: LinearProgram(1, np.array([-1.0]),
                                                 bounds=[(0.0, None)]), "unbounded")):
        assert lp_solver._refactored_solve(build()).status == status


def _beale_lp() -> LinearProgram:
    """Beale's LP, on which the most-negative-cost rule cycles from the slack basis."""
    rows = [([0.25, -60.0, -0.04, 9.0], LE, 0.0), ([0.5, -90.0, -0.02, 3.0], LE, 0.0),
            ([0.0, 0.0, 1.0, 0.0], LE, 1.0)]
    return LinearProgram(4, [-0.75, 150.0, -0.02, 6.0], constraints=rows,
                         bounds=[(0.0, None)] * 4)


@pytest.mark.parametrize("case, stall_limit", [("beale", 1), ("nominal_setup", 4)])
def test_refactored_solve_takes_bland_steps(case, stall_limit, request, monkeypatch):
    """With a low STALL_LIMIT the fallback switches to Bland's rule and its
    min-ratio row, and still reaches the tableau's optimum.  Its pivots and
    bits depend on the BLAS thread count, so only the outcome is checked."""
    lp = _beale_lp() if case == "beale" else _demo_lp(request.getfixturevalue(case))
    ref = lp_solver._tableau_solve(lp)
    bland_rows = []
    ratio_row = lp_solver._ratio_row
    monkeypatch.setattr(lp_solver, "_ratio_row",
                        lambda *args: bland_rows.append(1) or ratio_row(*args))
    monkeypatch.setattr(lp_solver, "STALL_LIMIT", stall_limit)
    sol = lp_solver._refactored_solve(lp)
    assert sol.status == ref.status == "optimal"
    assert sum(sol.bland_switches) > 0 and bland_rows
    assert np.isclose(sol.objective, ref.objective, rtol=1e-9, atol=1e-9)
    assert lp_solver._satisfies(lp, sol.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_satisfies_rejects_non_finite_points(bad):
    """A NaN fails both comparisons of a row test, and an infinite point
    gets an infinite tolerance, so neither may pass as meeting the rows."""
    lp = LinearProgram(1, [1.0], constraints=[([1.0], LE, 1.0)])
    assert lp_solver._satisfies(lp, np.array([0.5]))
    assert not lp_solver._satisfies(lp, np.array([bad]))


def test_solve_falls_back_when_the_tableau_fails(switching_setup, monkeypatch):
    """A tableau solve that raises, or returns a point missing a row, is
    redone by the refactored simplex, which reaches the same optimum."""
    lp = _demo_lp(switching_setup)
    ref = solve(lp)

    def breakdown(*args, **kwargs):
        raise LpNumericalError("pivot breakdown")

    def missed(lp):
        return lp_solver.LpSolution("optimal", 0.0, np.zeros(lp.variable_count))

    for tableau_solve in (breakdown, missed):
        with monkeypatch.context() as patch:
            patch.setattr(lp_solver, "_tableau_solve", tableau_solve)
            sol = solve(lp)
        assert sol.status == "optimal"
        assert np.isclose(sol.objective, ref.objective, rtol=1e-9)
        assert lp_solver._satisfies(lp, sol.values)


def test_one_fallback_gate(monkeypatch):
    """Both tableau failures pass one FALLBACK_ROWS gate: above it the
    failure is raised and the fallback never runs; below it a singular
    basis in the fallback is raised as LpNumericalError."""
    lp = LinearProgram(1, [1.0], constraints=[([1.0], LE, 1.0)])
    reran = []

    def breakdown(lp):
        raise LpNumericalError("pivot breakdown")

    def missed(lp):
        return lp_solver.LpSolution("optimal", 5.0, np.array([5.0]))

    def singular(lp):
        reran.append(lp)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(lp_solver, "_refactored_solve", singular)
    for tableau_solve, message in ((breakdown, "pivot breakdown"), (missed, "misses a row")):
        monkeypatch.setattr(lp_solver, "_tableau_solve", tableau_solve)
        monkeypatch.setattr(lp_solver, "FALLBACK_ROWS", 0)
        with pytest.raises(LpNumericalError, match=message):
            solve(lp)
        assert not reran
        monkeypatch.setattr(lp_solver, "FALLBACK_ROWS", 1)
        with pytest.raises(LpNumericalError, match=r"singular basis \(Singular matrix\)"):
            solve(lp)
        assert reran.pop() is lp


def test_restricted_pivot_matches_dense_update():
    rng = np.random.default_rng(47)
    for _ in range(200):
        m, n = int(rng.integers(2, 30)), int(rng.integers(2, 40))
        T = np.where(rng.random((m, n)) < 0.2, rng.normal(size=(m, n)), 0.0)
        T[rng.random((m, n)) < 0.05] = -0.0
        rows, cols = np.nonzero(np.abs(T) >= lp_solver.PIVOT_TOL)
        if rows.size == 0:
            continue
        k = int(rng.integers(rows.size))
        basis = np.arange(m)
        ref, ref_basis = T.copy(), basis.copy()
        dense_pivot(ref, ref_basis, rows[k], cols[k], None)
        lp_solver._pivot(T, basis, rows[k], cols[k], T[:, cols[k]].copy())
        assert np.array_equal(T, ref)  # -0.0 == 0.0: only signed zeros may differ
        assert np.array_equal(basis, ref_basis)


def _assert_matches_ix_pivot(lp, monkeypatch):
    """solve equals solve with the np.ix_ pivot and the full ratio test, and
    some pivot spans many row slices."""
    with monkeypatch.context() as patch:
        patch.setattr(lp_solver, "_pivot", ix_pivot)
        patch.setattr(lp_solver, "_ratio_row", full_ratio_row)
        ref = solve(lp)
    touched = []
    pivot = lp_solver._pivot

    def counting_pivot(T, basis, row, col, column):
        touched.append((np.count_nonzero(column) - 1) * np.count_nonzero(T[row]))
        pivot(T, basis, row, col, column)

    monkeypatch.setattr(lp_solver, "_pivot", counting_pivot)
    sol = solve(lp)
    _assert_same(sol, ref)
    assert sol.status == "optimal"
    assert len(touched) == sum(sol.pivots)
    assert max(touched) > 8 * lp_solver.BLOCK  # many row blocks in one pivot


def test_solver_matches_ix_pivot_on_largest_demo_lp(switching_setup, monkeypatch):
    # the demo's M=2 N=4 exact LP has the largest pivot blocks of the demo
    _assert_matches_ix_pivot(_bench_lp(switching_setup, "switching_m2n4"), monkeypatch)


def test_solver_matches_ix_pivot_on_largest_relaxed_lp(switching_setup, monkeypatch):
    # 836 rows by 473 variables: the largest LP of the demo-relaxed workload
    lp = _bench_lp(switching_setup, "relaxed_m1n5")
    assert (len(lp.constraints), lp.variable_count) == (836, 473)
    _assert_matches_ix_pivot(lp, monkeypatch)


def test_blocked_pivot_matches_ix_pivot():
    rng = np.random.default_rng(50)
    slices = []
    for _ in range(12):
        m, n = int(rng.integers(300, 701)), int(rng.integers(400, 801))
        T = np.where(rng.random((m, n)) < 0.05, rng.normal(size=(m, n)), 0.0)
        T[rng.random((m, n)) < 0.02] = -0.0
        row, col = int(rng.integers(m)), int(rng.integers(n))
        # a pivot column nonzero in most rows, 40-400 pivot-row nonzeros
        T[:, col] = np.where(rng.random(m) < 0.9, rng.normal(size=m), T[:, col])
        k = int(rng.integers(40, 401))
        T[row] = np.where(rng.random(n) < 0.1, -0.0, 0.0)
        T[row, rng.choice(n, k, replace=False)] = rng.normal(size=k)
        T[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        rows, cols = np.count_nonzero(T[:, col]) - 1, np.count_nonzero(T[row])
        slices.append(-(-rows // (lp_solver.BLOCK // cols)))
        basis = np.arange(m)
        ref, ref_basis = T.copy(), basis.copy()
        ix_pivot(ref, ref_basis, row, col, None)
        lp_solver._pivot(T, basis, row, col, T[:, col].copy())
        assert T.tobytes() == ref.tobytes()  # signed zeros included
        assert np.array_equal(basis, ref_basis)
    assert min(slices) > 1 and max(slices) >= 8  # every case spans several row blocks


@pytest.mark.parametrize("layout", ["fortran", "column-slice"])
def test_pivot_rejects_tableau_without_flat_view(layout):
    wide = np.arange(1.0, 25.0).reshape(3, 8)
    T = np.asfortranarray(wide[:, :4]) if layout == "fortran" else wide[:, :4]
    before, basis = T.copy(), np.arange(3)
    with pytest.raises(ValueError):
        lp_solver._pivot(T, basis, 0, 0, T[:, 0].copy())
    assert T.tobytes() == before.tobytes()
    assert np.array_equal(basis, np.arange(3))


def test_pivot_writes_through_evenly_strided_view():
    # every other column of a C array flattens to a strided view, not a copy
    wide = np.repeat(np.arange(1.0, 13.0).reshape(3, 4), 2, axis=1)
    T = wide[:, ::2]
    ref, basis, ref_basis = T.copy(), np.arange(3), np.arange(3)
    ix_pivot(ref, ref_basis, 1, 2, None)
    lp_solver._pivot(T, basis, 1, 2, T[:, 2].copy())
    assert wide[:, ::2].tobytes() == ref.tobytes()
    assert np.array_equal(basis, ref_basis)


def test_ratio_row_matches_full_ratio_test():
    rng = np.random.default_rng(49)
    tol = lp_solver.PIVOT_TOL
    entries = [0.0, -0.0, -1.0, -3.0, 0.5 * tol, tol, 0.25, 0.5, 1.0, 2.0]
    rhs = [0.0, 0.5, 1.0, 1.0 + 0.4 * tol, 2.0, 3.0]
    none_eligible = exact_ties = 0
    for _ in range(2000):
        m = int(rng.integers(1, 25))
        T = np.zeros((m + 1, 3))
        T[:m, 0] = rng.choice(entries, size=m)
        T[:m, -1] = rng.choice(rhs, size=m)
        basis = rng.permutation(3 * m)[:m]
        want = full_ratio_row(T[:m, -1], basis, T[:, 0].copy())
        assert lp_solver._ratio_row(T[:m, -1], basis, T[:, 0].copy()) == want
        eligible = T[:m, 0] > tol
        if want < 0:
            none_eligible += 1
        else:
            ratios = T[:m, -1][eligible] / T[:m, 0][eligible]
            exact_ties += np.count_nonzero(ratios == ratios.min()) > 1
    assert none_eligible > 50 and exact_ties > 50


def test_initial_basis_matches_loop_scan():
    rng = np.random.default_rng(48)
    for _ in range(200):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        A = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0, 2.0], size=(m, n))
        for _ in range(int(rng.integers(0, 4))):
            # unit columns, sometimes repeated or negated, and emptied rows
            j, i = int(rng.integers(n)), int(rng.integers(m))
            A[:, j] = 0.0
            A[i, j] = rng.choice([1.0, 1.0, -1.0])
            if rng.random() < 0.5:
                A[:, int(rng.integers(n))] = A[:, j]
            if rng.random() < 0.3:
                A[int(rng.integers(m))] = 0.0
        # u = x >= 0, so A is the structural block; a negative rhs negates its row
        rows = [(A[i], EQ if rng.random() < 0.5 else LE, float(rng.choice([-1.0, 0.0, 1.0])))
                for i in range(m)]
        lp = LinearProgram(n, np.zeros(n), constraints=rows, bounds=[(0.0, None)] * n)
        basis, ref = lp_solver._tableau(lp)[1], dense_tableau(lp)[1]
        assert np.array_equal(basis, ref)


def test_tableau_matches_dense_oracle(monkeypatch):
    """The in-place build equals the dense A copied into [A | art | b], bit
    for bit, and solve with the in-place build and row drop returns what it
    returns with the dense build and np.vstack."""
    rng = np.random.default_rng(51)
    dropped = unit_eq = 0
    seen = set()
    drop_rows = lp_solver._drop_rows
    for _ in range(400):
        lp = random_standard_form_lp(rng)
        T, basis, ncols, c, _ = lp_solver._tableau(lp)
        ref_T, ref_basis, ref_ncols, ref_c, _ = dense_tableau(lp)
        assert T.shape == ref_T.shape and T.tobytes() == ref_T.tobytes()
        assert basis.tobytes() == ref_basis.tobytes()
        assert ncols == ref_ncols and c.tobytes() == ref_c.tobytes()
        eq = [i for i, (_, rel, _) in enumerate(lp.constraints) if rel == EQ]
        unit_eq += int(np.any(basis[eq] < ncols))  # an equality row has no slack
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(lp_solver, "_drop_rows",
                          lambda T, keep: calls.append(keep) or drop_rows(T, keep))
            sol = solve(lp)
        dropped += bool(calls)
        with monkeypatch.context() as patch:
            patch.setattr(lp_solver, "_tableau", dense_tableau)
            patch.setattr(lp_solver, "_drop_rows", vstack_drop_rows)
            _assert_same(sol, solve(lp))
        seen.add(sol.status)
    assert seen == {"optimal", "infeasible", "unbounded"}
    assert dropped > 50 and unit_eq > 50


@pytest.mark.parametrize("mode", ["exact", "relaxed"])
def test_solve_holds_one_tableau(switching_setup, monkeypatch, mode):
    """solve allocates no second array of the tableau's size: its traced
    peak stays within 1.25 times the tableau it builds, whose leading rows
    phase 2 runs in.  The exact M=1 N=5 demo LP drops 48 redundant rows
    after phase 1."""
    plant, model, automaton, config = switching_setup
    config = dataclasses.replace(config, mode=mode, eps_bar=0.1 if mode == "relaxed" else 0.0)
    lp = _demo_lp((plant, model, automaton, config))
    shapes = []
    simplex = lp_solver._simplex

    def recording_simplex(T, *args):
        shapes.append(T.shape)
        return simplex(T, *args)

    monkeypatch.setattr(lp_solver, "_simplex", recording_simplex)
    tracemalloc.start()
    try:
        sol = solve(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    (rows, width), (final_rows, final_width) = shapes
    assert final_width == width
    assert rows - final_rows == (48 if mode == "exact" else 0)
    assert peak <= 1.25 * rows * width * 8
