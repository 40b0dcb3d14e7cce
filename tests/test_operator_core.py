import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchguard.operator_core import Signal, TruncatedOperator, apply, induced_norm
from util import (DictOperator, band_entry, band_kernel, dense_blockdiag, dict_add, dict_apply,
                  dict_compose, dict_delay, dict_hstack, dict_induced_norm, dict_make_diagonal,
                  dict_scale, invert, max_abs_row_sum, random_operator, random_signal,
                  resolvent_of_state, unroll)

# The operator algebra (make_diagonal, delay, compose, add, scale, hstack)
# exists only as the dict oracle of util.py, the reference chain the
# package's bands are checked against; these tests pin it to dense products.


def _eye_band(dim: int, horizon: int, scale: float = 1.0) -> TruncatedOperator:
    """The constant diagonal operator scale * I as a one-lag band."""
    return TruncatedOperator(np.broadcast_to(scale * np.eye(dim), (horizon, 1, dim, dim)).copy())


def test_make_diagonal_identity_acts_as_identity():
    op = dict_make_diagonal(np.eye(3), 4)
    rng = np.random.default_rng(0)
    u = random_signal(rng, 4, 3)
    assert np.array_equal(dict_apply(op, u).samples, u.samples)


def test_make_diagonal_random_blockdiag_oracle():
    rng = np.random.default_rng(1)
    block = rng.uniform(-1, 1, (2, 3))
    op = dict_make_diagonal(block, 6)
    assert np.array_equal(op.unroll(), dense_blockdiag([block] * 6))


def test_delay_zero_is_identity():
    rng = np.random.default_rng(2)
    u = random_signal(rng, 5, 2)
    assert np.array_equal(dict_apply(dict_delay(0, 2, 5), u).samples, u.samples)


def test_delay_shifts_and_truncates():
    u = Signal(np.array([[1.0], [2.0], [3.0]]))
    y = dict_apply(dict_delay(1, 1, 3), u)
    assert np.array_equal(y.samples, np.array([[0.0], [1.0], [2.0]]))


def test_delay_semigroup():
    a = dict_compose(dict_delay(1, 2, 6), dict_delay(2, 2, 6))
    b = dict_delay(3, 2, 6)
    assert np.array_equal(a.unroll(), b.unroll())


def test_compose_identity_neutral():
    rng = np.random.default_rng(3)
    S = random_operator(rng, 5, 2, 3)
    left = dict_compose(dict_delay(0, 3, 5), DictOperator.of(S))
    assert np.array_equal(left.unroll(), unroll(S))


def test_compose_delay_with_diagonal():
    A = np.array([[2.0, 0.0], [1.0, 1.0]])
    op = dict_compose(dict_delay(1, 2, 4), dict_make_diagonal(A, 4))
    rng = np.random.default_rng(4)
    u = random_signal(rng, 4, 2)
    y = dict_apply(op, u)
    assert np.allclose(y.samples[0], 0.0)
    for t in range(1, 4):
        assert np.allclose(y.samples[t], A @ u.samples[t - 1])


def test_compose_dense_product_oracle_100():
    rng = np.random.default_rng(5)
    for _ in range(100):
        R = random_operator(rng, 8, 3, 2)
        S = random_operator(rng, 8, 4, 3)
        C = dict_compose(DictOperator.of(R), DictOperator.of(S))
        assert np.allclose(C.unroll(), unroll(R) @ unroll(S), atol=1e-12)


def test_add_with_negation_is_zero():
    rng = np.random.default_rng(8)
    R = DictOperator.of(random_operator(rng, 6, 2, 2))
    Z = dict_add(R, dict_scale(R, -1.0))
    assert np.allclose(Z.unroll(), 0.0, atol=0)


def test_add_identity_plus_zero():
    eye = dict_delay(0, 3, 4)
    total = dict_add(eye, DictOperator(4, 3, 3, {}))
    assert np.array_equal(total.unroll(), eye.unroll())


def test_add_dense_sum_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        R = random_operator(rng, 7, 2, 3)
        S = random_operator(rng, 7, 2, 3)
        total = dict_add(DictOperator.of(R), DictOperator.of(S))
        assert np.allclose(total.unroll(), unroll(R) + unroll(S), atol=0)


def test_resolvent_zero_state_matrix():
    op = resolvent_of_state(np.zeros((2, 2)), 5)
    assert np.array_equal(unroll(op), np.eye(10))


def test_resolvent_unstable_powers(plant):
    A = plant.A
    op = resolvent_of_state(A, 6)
    expected = np.eye(3)
    for k in range(6):
        assert np.allclose(band_entry(op, 5, k), expected, atol=0)
        expected = A @ expected
    # spectral radius 2: entries grow along the lags
    assert np.max(np.abs(band_entry(op, 5, 5))) > np.max(np.abs(band_entry(op, 5, 1)))


def test_resolvent_is_inverse():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        A = rng.uniform(-1.5, 1.5, (n, n))
        H = 7
        res = unroll(resolvent_of_state(A, H))
        left = np.eye(n * H) - np.kron(np.eye(H, k=-1), A)  # I - shift(A)
        assert np.allclose(left @ res, np.eye(n * H), atol=1e-12)
        assert np.allclose(res, np.linalg.inv(left), atol=1e-9)


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(11)
    for _ in range(50):
        R = random_operator(rng, 6, 3, 2)
        u = random_signal(rng, 6, 3)
        y = apply(R, u)
        stacked = unroll(R) @ u.samples.reshape(-1)
        assert np.allclose(y.samples.reshape(-1), stacked, atol=1e-12)


def test_apply_dim_mismatch():
    R = random_operator(np.random.default_rng(12), 4, 3, 2)
    with pytest.raises(ValueError):
        apply(R, Signal(np.zeros((4, 2))))


def test_induced_norm_identity():
    assert induced_norm(_eye_band(3, 5)) == 1.0


def test_induced_norm_scalar_fir():
    band = np.zeros((4, 2, 1, 1))
    band[:, 0] = 2.0
    band[1:, 1] = -1.0
    assert induced_norm(TruncatedOperator(band)) == 3.0


def test_induced_norm_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        R = random_operator(rng, 6, 2, 3)
        dense = unroll(R)
        p = R.out_dim
        expected = max(max_abs_row_sum(dense[t * p:(t + 1) * p]) for t in range(R.horizon))
        assert np.isclose(induced_norm(R), expected, atol=1e-12)


def test_unroll_roundtrip_bijective():
    rng = np.random.default_rng(15)
    R = random_operator(rng, 6, 2, 3)
    dense = unroll(R)
    p, m, H = R.out_dim, R.in_dim, R.horizon
    band = np.zeros((H, H, p, m))
    for t in range(H):
        for k in range(t + 1):
            s = t - k
            band[t, k] = dense[t * p:(t + 1) * p, s * m:(s + 1) * m]
    rebuilt = TruncatedOperator(band)
    assert np.allclose(unroll(rebuilt), dense, atol=0)
    for key, mat in band_kernel(R).items():
        assert np.allclose(band_entry(rebuilt, *key), mat, atol=0)


def test_kernel_causality_enforced():
    # a band wider than the horizon would hold lags t < k; empty or flat bands are not operators
    for shape in ((3, 4, 1, 1), (0, 1, 1, 1), (3, 1, 0, 1), (3, 1, 1)):
        with pytest.raises(ValueError):
            TruncatedOperator(np.zeros(shape))


def test_band_is_handed_over_read_only():
    band = np.zeros((3, 2, 1, 1))
    op = TruncatedOperator(band)
    assert op.band is band and not band.flags.writeable
    with pytest.raises(AttributeError):
        op.horizon = 4


def test_time_invariance_of_constant_diagonal():
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    H = 6
    R = dict_make_diagonal(A, H)
    lam = dict_delay(1, 2, H)
    assert np.array_equal(dict_compose(lam, R).unroll(), dict_compose(R, lam).unroll())


def test_norm_submultiplicative():
    rng = np.random.default_rng(16)
    for _ in range(30):
        R = random_operator(rng, 6, 3, 2)
        S = random_operator(rng, 6, 2, 3)
        lhs = dict_induced_norm(dict_compose(DictOperator.of(R), DictOperator.of(S)))
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
        band = 0.3 * base.band
        band[:, 0] += np.eye(n)
        R = TruncatedOperator(band)  # I + 0.3 base
        Rinv = invert(R)
        assert np.allclose(unroll(R) @ unroll(Rinv), np.eye(n * H), atol=1e-9)
        assert np.allclose(unroll(Rinv), np.linalg.inv(unroll(R)), atol=1e-9)


def test_invert_singular_lag0():
    op = TruncatedOperator(np.zeros((3, 1, 2, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        invert(op)
    # rank 2 of 3; its determinant rounds to about 7e-16, not to zero
    rank_deficient = np.arange(1.0, 10.0).reshape(3, 3)
    with pytest.raises(np.linalg.LinAlgError):
        invert(TruncatedOperator(np.array([rank_deficient] * 2)[:, None]))


def test_invert_small_well_conditioned_lag0():
    # det(1e-5 I) = 1e-15, yet the block is perfectly conditioned
    R = _eye_band(3, 3, 1e-5)
    assert np.allclose(unroll(invert(R)), 1e5 * np.eye(9), rtol=1e-12, atol=0)


def test_hstack_applies_blockwise():
    rng = np.random.default_rng(19)
    R = random_operator(rng, 6, 2, 3)
    S = random_operator(rng, 6, 4, 3)
    u = random_signal(rng, 6, 2)
    v = random_signal(rng, 6, 4)
    stacked = Signal(np.hstack([u.samples, v.samples]))
    lhs = dict_apply(dict_hstack(DictOperator.of(R), DictOperator.of(S)), stacked)
    rhs = apply(R, u).samples + apply(S, v).samples
    assert np.allclose(lhs.samples, rhs, atol=1e-12)


@st.composite
def band_cases(draw):
    """Random causal kernels for three batches of `count` operators, each
    batch with its own shape (out_dim x in_dim) and band width.

    Entries are left out at random and hold exact zeros of both signs; each
    dict is filled t-major with lags ascending, the order in which the dict
    algebra sums a row.
    """
    H = draw(st.integers(1, 7))
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def kernels(out_dim, in_dim):
        lags = int(rng.integers(1, H + 1))
        found = []
        for _ in range(count):
            kernel = {}
            for t in range(H):
                for k in range(min(t + 1, lags)):
                    if rng.random() < 0.75:
                        values = rng.uniform(-2.0, 2.0, (out_dim, in_dim))
                        draw_zero = rng.random(values.shape)
                        values[draw_zero < 0.2] = 0.0
                        values[draw_zero > 0.9] = -0.0
                        kernel[(t, k)] = values
            found.append(kernel)
        return out_dim, in_dim, lags, found

    return H, [kernels(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(3)]


@settings(max_examples=150, deadline=None)
@given(band_cases())
def test_band_operations_match_dict_oracle(case):
    """Batched band induced_norm and per-sequence apply equal the dict oracle
    bit for bit (array_equal: zeros of either sign are equal)."""
    H, batches = case
    rng = np.random.default_rng(0)
    for out_dim, in_dim, lags, dicts in batches:
        band = np.zeros((len(dicts), H, lags, out_dim, in_dim))
        for b, kernel in enumerate(dicts):
            for (t, k), mat in kernel.items():
                band[b, t, k] = mat
        norms = induced_norm(TruncatedOperator(band))
        assert norms.shape == (len(dicts),)
        for b, kernel in enumerate(dicts):
            single, oracle = TruncatedOperator(band[b]), DictOperator(H, in_dim, out_dim, kernel)
            assert np.array_equal(unroll(single), oracle.unroll())
            assert induced_norm(single) == norms[b] == dict_induced_norm(oracle)
            u = random_signal(rng, H, in_dim)
            assert np.array_equal(apply(single, u).samples, dict_apply(oracle, u).samples)
