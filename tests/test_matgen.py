import json

import numpy as np
import pytest

from lp_equiv.matgen import (
    AugmentedSpec,
    DenseMatrix,
    VandermondeSpec,
    b_vectors,
    build_augmented_0,
    build_augmented_t,
    build_vandermonde,
    extend_lambda,
    power_rows,
    sample_instance,
)
from lp_equiv.numerics import SamplingError


def test_worked_example_entries():
    spec = VandermondeSpec(2, (1.0, 2.0, 3.0))
    A = build_vandermonde(spec)
    assert np.array_equal(A.entries, np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]]))


def test_spec_validation():
    with pytest.raises(ValueError):
        VandermondeSpec(0, (1.0,))
    with pytest.raises(ValueError):
        VandermondeSpec(2, (1.0,))  # n < m
    with pytest.raises(ValueError):
        VandermondeSpec(1, (0.0, 1.0))  # zero node
    with pytest.raises(ValueError):
        VandermondeSpec(1, (1.0, float("inf")))


def test_distinct_abs():
    spec = VandermondeSpec(2, (1.0, -1.0, 2.0))
    assert not spec.distinct_abs  # |1| == |-1|
    with pytest.raises(ValueError):
        spec.require_distinct_abs()
    ok = VandermondeSpec(2, (0.5, -1.0, 2.0))
    assert ok.distinct_abs


def test_power_rows_is_shared_structural_path():
    lam = np.array([2.0, 3.0])
    top = power_rows(lam, np.arange(2))
    shifted = power_rows(lam, np.arange(2, 4))
    assert np.array_equal(top, np.array([[1.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(shifted, np.array([[4.0, 9.0], [8.0, 27.0]]))


def test_b_vectors_are_shifted_power_rows():
    spec = VandermondeSpec(2, (1.0, 2.0, 3.0))
    B = b_vectors(spec)
    assert B.shape == (4, 3)  # m+2 rows
    # row i holds lam**(m+i)
    assert np.array_equal(B[0], np.array([1.0, 4.0, 9.0]))
    assert np.array_equal(B[-1], np.array([1.0, 32.0, 243.0]))


def test_augmented_t_shape_and_blocks():
    spec = VandermondeSpec(2, (0.5, -0.8, 1.2, -1.5, 1.9, 0.3))
    aug = AugmentedSpec(spec, x_t=0.1, y_t=0.01)
    At = build_augmented_t(aug)
    m, n = spec.m, spec.n
    assert At.entries.shape == (2 * m + 2, n + m + 2)
    # top-left block is the plain Vandermonde, top-right is zero
    A = build_vandermonde(spec)
    assert np.array_equal(At.entries[:m, :n], A.entries)
    assert np.all(At.entries[:m, n:] == 0.0)
    # bottom-right block is the identity
    assert np.array_equal(At.entries[m:, n:], np.eye(m + 2))
    # bottom-left rows are x_t*B_1 then y_t*B_2..B_{m+2}
    B = b_vectors(spec)
    assert np.allclose(At.entries[m, :n], 0.1 * B[0])
    for i in range(1, m + 2):
        assert np.allclose(At.entries[m + i, :n], 0.01 * B[i])


def test_augmented_0_is_block_diagonal_limit():
    spec = VandermondeSpec(2, (0.5, -0.8, 1.2, -1.5, 1.9, 0.3))
    A0 = build_augmented_0(spec)
    m, n = spec.m, spec.n
    assert A0.entries.shape == (2 * m + 2, n + m + 2)
    assert np.all(A0.entries[m:, :n] == 0.0)
    assert np.array_equal(A0.entries[m:, n:], np.eye(m + 2))


def test_matrix_csv_round_trip_is_exact():
    rng = np.random.default_rng(3)
    A = DenseMatrix(rng.standard_normal((3, 5)))
    again = DenseMatrix.from_csv(A.to_csv())
    assert np.array_equal(A.entries, again.entries)  # repr round-trips floats


def test_matrix_json_round_trip_is_exact():
    rng = np.random.default_rng(4)
    A = DenseMatrix(rng.standard_normal((2, 7)))
    again = DenseMatrix.from_json_dict(json.loads(json.dumps(A.to_json_dict())))
    assert np.array_equal(A.entries, again.entries)
    assert set(A.to_json_dict()) == {"rows", "cols", "entries"}


def test_legacy_envelope_with_tol_still_loads():
    # envelopes written before the one rank policy carried a per-matrix "tol"
    legacy = {"rows": 1, "cols": 2, "entries": [1.0, 2.0], "tol": 1e-10}
    A = DenseMatrix.from_json_dict(legacy)
    assert np.array_equal(A.entries, [[1.0, 2.0]])


def test_matrix_validation():
    with pytest.raises(ValueError):
        DenseMatrix(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[np.nan]]))


def test_spec_json_round_trip():
    spec = VandermondeSpec(2, (0.5, -0.8, 1.2), seed=99)
    again = VandermondeSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec


def test_sample_instance_is_deterministic_and_separated():
    a = sample_instance(3, 7, seed=5)
    b = sample_instance(3, 7, seed=5)
    assert a == b
    assert a.distinct_abs
    mags = sorted(abs(v) for v in a.lam)
    assert all(hi - lo >= 0.05 - 1e-12 for lo, hi in zip(mags, mags[1:]))
    assert all(0.5 <= abs(v) <= 2.0 for v in a.lam)


def test_sample_instance_impossible_separation_raises():
    # 40 magnitudes at separation 0.05 cannot fit inside [0.5, 2.0]
    with pytest.raises(SamplingError):
        sample_instance(8, 40, seed=0, max_tries=200)


def test_extend_lambda_reaches_wide_regime():
    spec = sample_instance(3, 5, seed=5)
    ext = extend_lambda(spec, seed=1)
    assert ext.m == spec.m
    assert ext.n == 2 * spec.m + 2
    assert ext.lam[: spec.n] == spec.lam  # original nodes preserved in place
    assert ext.distinct_abs


def test_extend_lambda_rejects_already_wide():
    spec = sample_instance(2, 8, seed=1)
    with pytest.raises(ValueError):
        extend_lambda(spec, seed=0)
