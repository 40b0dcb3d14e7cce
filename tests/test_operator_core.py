import numpy as np
import pytest

from switchguard import demo
from switchguard.operator_core import (Signal, TruncatedOperator, add, apply, compose,
                                       delay, hstack, identity, induced_norm, invert,
                                       make_diagonal, resolvent_of_state, row_gain,
                                       scale, zero_operator)
from util import dense_blockdiag, max_abs_row_sum, random_operator, random_signal


def test_make_diagonal_identity_acts_as_identity():
    op = make_diagonal(np.eye(3), 4)
    rng = np.random.default_rng(0)
    u = random_signal(rng, 4, 3)
    assert np.array_equal(apply(op, u).samples, u.samples)


def test_make_diagonal_mode_blocks_match_blockdiag():
    model = demo.demo_model()
    sigma = (0, 1, 0)
    blocks = [model.C(j) for j in sigma]
    op = make_diagonal(blocks, 3)
    assert np.allclose(op.unroll(), dense_blockdiag(blocks))


def test_make_diagonal_random_blockdiag_oracle():
    rng = np.random.default_rng(1)
    blocks = [rng.uniform(-1, 1, (2, 3)) for _ in range(6)]
    op = make_diagonal(blocks, 6)
    assert np.allclose(op.unroll(), dense_blockdiag(blocks), atol=0)


def test_make_diagonal_shape_error():
    with pytest.raises(ValueError):
        make_diagonal([np.eye(2), np.eye(3)], 2)


def test_delay_zero_is_identity():
    rng = np.random.default_rng(2)
    u = random_signal(rng, 5, 2)
    assert np.array_equal(apply(delay(0, 2, 5), u).samples, u.samples)


def test_delay_shifts_and_truncates():
    u = Signal(np.array([[1.0], [2.0], [3.0]]))
    y = apply(delay(1, 1, 3), u)
    assert np.array_equal(y.samples, np.array([[0.0], [1.0], [2.0]]))


def test_delay_semigroup():
    a = compose(delay(1, 2, 6), delay(2, 2, 6))
    b = delay(3, 2, 6)
    assert np.allclose(a.unroll(), b.unroll(), atol=0)


def test_compose_identity_neutral():
    rng = np.random.default_rng(3)
    S = random_operator(rng, 5, 2, 3)
    left = compose(identity(3, 5), S)
    assert np.allclose(left.unroll(), S.unroll(), atol=0)


def test_compose_delay_with_diagonal():
    A = np.array([[2.0, 0.0], [1.0, 1.0]])
    op = compose(delay(1, 2, 4), make_diagonal(A, 4))
    rng = np.random.default_rng(4)
    u = random_signal(rng, 4, 2)
    y = apply(op, u)
    assert np.allclose(y.samples[0], 0.0)
    for t in range(1, 4):
        assert np.allclose(y.samples[t], A @ u.samples[t - 1])


def test_compose_dense_product_oracle_100():
    rng = np.random.default_rng(5)
    for _ in range(100):
        R = random_operator(rng, 8, 3, 2)
        S = random_operator(rng, 8, 4, 3)
        C = compose(R, S)
        assert np.allclose(C.unroll(), R.unroll() @ S.unroll(), atol=1e-12)


def test_compose_dimension_mismatch():
    R = random_operator(np.random.default_rng(6), 4, 3, 2)
    S = random_operator(np.random.default_rng(7), 4, 2, 2)
    with pytest.raises(ValueError):
        compose(R, S)


def test_add_with_negation_is_zero():
    rng = np.random.default_rng(8)
    R = random_operator(rng, 6, 2, 2)
    Z = add(R, scale(R, -1.0))
    assert np.allclose(Z.unroll(), 0.0, atol=0)


def test_add_identity_plus_zero():
    eye = identity(3, 4)
    total = add(eye, zero_operator(3, 3, 4))
    assert np.allclose(total.unroll(), eye.unroll(), atol=0)


def test_add_dense_sum_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        R = random_operator(rng, 7, 2, 3)
        S = random_operator(rng, 7, 2, 3)
        assert np.allclose(add(R, S).unroll(), R.unroll() + S.unroll(), atol=0)


def test_resolvent_zero_state_matrix():
    op = resolvent_of_state(np.zeros((2, 2)), 5)
    assert np.allclose(op.unroll(), identity(2, 5).unroll(), atol=0)


def test_resolvent_unstable_powers():
    A = demo.demo_plant().A
    op = resolvent_of_state(A, 6)
    expected = np.eye(3)
    for k in range(6):
        assert np.allclose(op.entry(5, k), expected, atol=0)
        expected = A @ expected
    # spectral radius 2: entries grow along the lags
    assert np.max(np.abs(op.entry(5, 5))) > np.max(np.abs(op.entry(5, 1)))


def test_resolvent_is_inverse():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        A = rng.uniform(-1.5, 1.5, (n, n))
        H = 7
        res = resolvent_of_state(A, H)
        lam_a = compose(delay(1, n, H), make_diagonal(A, H))
        left = add(identity(n, H), scale(lam_a, -1.0))
        assert np.allclose(compose(left, res).unroll(), identity(n, H).unroll(), atol=1e-12)
        dense = np.linalg.inv(left.unroll())
        assert np.allclose(res.unroll(), dense, atol=1e-9)


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(11)
    for _ in range(50):
        R = random_operator(rng, 6, 3, 2)
        u = random_signal(rng, 6, 3)
        y = apply(R, u)
        stacked = R.unroll() @ u.samples.reshape(-1)
        assert np.allclose(y.samples.reshape(-1), stacked, atol=1e-12)


def test_apply_dim_mismatch():
    R = random_operator(np.random.default_rng(12), 4, 3, 2)
    with pytest.raises(ValueError):
        apply(R, Signal(np.zeros((4, 2))))


def test_induced_norm_identity():
    assert induced_norm(identity(3, 5)) == 1.0


def test_induced_norm_scalar_fir():
    kernel = {}
    for t in range(4):
        kernel[(t, 0)] = np.array([[2.0]])
        if t >= 1:
            kernel[(t, 1)] = np.array([[-1.0]])
    op = TruncatedOperator(4, 1, 1, kernel)
    assert induced_norm(op) == 3.0


def test_induced_norm_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        R = random_operator(rng, 6, 2, 3)
        dense = R.unroll()
        p = R.out_dim
        expected = max(max_abs_row_sum(dense[t * p:(t + 1) * p]) for t in range(R.horizon))
        assert np.isclose(induced_norm(R), expected, atol=1e-12)


def test_row_gain_identity():
    value, witness = row_gain(identity(2, 4), 2)
    assert value == 1.0
    assert np.count_nonzero(witness.samples) == 1


def test_row_gain_zero_operator():
    value, _ = row_gain(zero_operator(2, 2, 4), 3)
    assert value == 0.0


def test_row_gain_witness_achieves_value():
    rng = np.random.default_rng(14)
    for _ in range(50):
        R = random_operator(rng, 7, 3, 2)
        t = int(rng.integers(0, 7))
        value, witness = row_gain(R, t)
        y = apply(R, witness)
        assert np.isclose(np.max(np.abs(y.samples[t])), value, atol=1e-12)


def test_row_gain_out_of_range():
    with pytest.raises(ValueError):
        row_gain(identity(2, 4), 4)


def test_unroll_roundtrip_bijective():
    rng = np.random.default_rng(15)
    R = random_operator(rng, 6, 2, 3)
    dense = R.unroll()
    p, m = R.out_dim, R.in_dim
    kernel = {}
    for t in range(R.horizon):
        for k in range(t + 1):
            s = t - k
            block = dense[t * p:(t + 1) * p, s * m:(s + 1) * m]
            if np.any(block):
                kernel[(t, k)] = block
    rebuilt = TruncatedOperator(R.horizon, m, p, kernel)
    assert np.allclose(rebuilt.unroll(), dense, atol=0)
    for key, mat in R.kernel.items():
        assert np.allclose(rebuilt.entry(*key), mat, atol=0)


def test_kernel_causality_enforced():
    with pytest.raises(ValueError):
        TruncatedOperator(3, 1, 1, {(1, 2): np.array([[1.0]])})


def test_time_invariance_of_constant_diagonal():
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    H = 6
    R = make_diagonal(A, H)
    lam = delay(1, 2, H)
    assert np.allclose(compose(lam, R).unroll(), compose(R, lam).unroll(), atol=0)


def test_norm_submultiplicative():
    rng = np.random.default_rng(16)
    for _ in range(30):
        R = random_operator(rng, 6, 3, 2)
        S = random_operator(rng, 6, 2, 3)
        lhs = induced_norm(compose(R, S))
        assert lhs <= induced_norm(R) * induced_norm(S) + 1e-9


def test_apply_never_reads_future():
    rng = np.random.default_rng(17)
    R = random_operator(rng, 8, 2, 2)
    u = random_signal(rng, 8, 2)
    t_cut = 4
    trimmed = u.samples.copy()
    trimmed[t_cut + 1:] = 0.0
    y_full = apply(R, u)
    y_trim = apply(R, Signal(trimmed))
    assert np.allclose(y_full.samples[:t_cut + 1], y_trim.samples[:t_cut + 1], atol=0)


def test_invert_forward_substitution():
    rng = np.random.default_rng(18)
    for _ in range(10):
        n, H = 2, 6
        base = random_operator(rng, H, n, n, density=0.5)
        R = add(identity(n, H), scale(base, 0.3))
        Rinv = invert(R)
        assert np.allclose(compose(R, Rinv).unroll(), identity(n, H).unroll(), atol=1e-9)
        assert np.allclose(Rinv.unroll(), np.linalg.inv(R.unroll()), atol=1e-9)


def test_invert_singular_lag0():
    op = zero_operator(2, 2, 3)
    with pytest.raises(np.linalg.LinAlgError):
        invert(op)
    # rank 2 of 3; its determinant rounds to about 7e-16, not to zero
    rank_deficient = np.arange(1.0, 10.0).reshape(3, 3)
    with pytest.raises(np.linalg.LinAlgError):
        invert(make_diagonal(rank_deficient, 2))


def test_invert_small_well_conditioned_lag0():
    # det(1e-5 I) = 1e-15, yet the block is perfectly conditioned
    R = make_diagonal(1e-5 * np.eye(3), 3)
    assert np.allclose(invert(R).unroll(), 1e5 * np.eye(9), rtol=1e-12, atol=0)


def test_hstack_applies_blockwise():
    rng = np.random.default_rng(19)
    R = random_operator(rng, 6, 2, 3)
    S = random_operator(rng, 6, 4, 3)
    u = random_signal(rng, 6, 2)
    v = random_signal(rng, 6, 4)
    stacked = Signal(np.hstack([u.samples, v.samples]))
    lhs = apply(hstack(R, S), stacked)
    rhs = apply(R, u).samples + apply(S, v).samples
    assert np.allclose(lhs.samples, rhs, atol=1e-12)
