import itertools
import math

import numpy as np
import pytest

from lp_equiv.matgen import build_vandermonde, sample_instance
from lp_equiv.numerics import (
    BudgetExceededError,
    POWER_FLOOR,
    abs_pow,
    check_budget,
    compensated_sum,
    derive_seed,
    iter_subset_chunks,
    lp_margin,
    lp_power_sum,
    subset_budget,
)
from lp_equiv.spectral import gram_spectrum


def test_derive_seed_is_deterministic_and_name_sensitive():
    assert derive_seed(7, "plant") == derive_seed(7, "plant")
    assert derive_seed(7, "plant") != derive_seed(7, "plant-2")
    assert derive_seed(7, "plant") != derive_seed(8, "plant")
    assert 0 <= derive_seed(0, "") < 2**64


def test_compensated_sum_beats_naive_on_cancellation():
    # classic pattern: huge + tiny - huge loses the tiny term naively
    values = [1e16, 1.0, -1e16] * 100
    assert compensated_sum(values) == pytest.approx(100.0, rel=0, abs=0)


def test_abs_pow_matches_direct_powers():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100) * 10.0
    for p in (0.05, 0.5, 1.0):
        direct = np.abs(x) ** p
        assert np.allclose(abs_pow(x, p), direct, rtol=1e-13)


def test_abs_pow_floors_tiny_values_to_zero():
    out = abs_pow(np.array([0.0, 1e-310, 1.0]), 0.5)
    assert out[0] == 0.0
    assert out[1] == 0.0
    assert out[2] == 1.0


def test_abs_pow_rejects_bad_exponent():
    with pytest.raises(ValueError):
        abs_pow(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        abs_pow(np.array([1.0]), 1.5)


def test_lp_power_sum_and_margin_consistency():
    x = np.array([1.0, -2.0, 0.0])
    h = np.array([0.5, 0.0, 3.0])
    p = 0.5
    direct = lp_power_sum(x + h, p) - lp_power_sum(x, p)
    assert lp_margin(x, h, p) == pytest.approx(direct, rel=1e-12)


def test_lp_margin_exact_zero_for_zero_h():
    x = np.array([1.0, 2.0])
    assert lp_margin(x, np.zeros(2), 0.3) == 0.0


def _margin_one_row(x, h, p):
    # the per-sample formula the block evaluation replaced
    return math.fsum((abs_pow(x + h, p) - abs_pow(x, p)).tolist())


@pytest.mark.parametrize("p", [1e-6, 0.013, 0.5, 1.0])
def test_block_margins_and_power_sums_are_bit_identical_to_one_row_at_a_time(p):
    rng = np.random.default_rng(3)
    x = np.array([0.0, 1.5, -0.7, 1e-301, 0.0, 2.0, -1e-300, 0.0])
    H = rng.standard_normal((64, x.size)) * rng.choice([1e-3, 1.0, 1e3], size=(64, 1))
    H[:, 4] = 0.0  # a coordinate zero in x* and in every h
    H[1] = 0.0  # zero perturbation
    H[2] = -x  # cancels x* exactly
    H[3, 3] = 1e-305  # x* + h stays at or below POWER_FLOOR
    margins = lp_margin(x, H, p)
    assert isinstance(margins, list) and all(type(v) is float for v in margins)
    assert margins == [_margin_one_row(x, h, p) for h in H]
    assert margins == [lp_margin(x, h, p) for h in H]
    assert margins[1] == 0.0

    powers = lp_power_sum(x + H, p)
    assert powers == [math.fsum(abs_pow(row, p).tolist()) for row in x + H]
    # padded zeros add exactly nothing to an exact sum
    assert lp_power_sum(np.pad(x + H, ((0, 0), (0, 3))), p) == powers


def reference_abs_pow(x, p):
    """exp(p * log|x|) one exponent at a time, zero at or below POWER_FLOOR."""
    a = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(a)
    mask = a > POWER_FLOOR
    out[mask] = np.exp(p * np.log(a[mask]))
    return out


def _grid_inputs():
    A = build_vandermonde(sample_instance(4, 8, seed=1))
    p_star = gram_spectrum(A).p_star
    rng = np.random.default_rng(5)
    x = np.array([0.0, 1.5, -0.7, 1e-301, 0.0, 2.0, -1e-300, 0.0])
    H = rng.standard_normal((16, x.size)) * rng.choice([1e-3, 1.0, 1e3], size=(16, 1))
    H[:, 4] = 0.0  # zero in x* and in every h
    H[1] = 0.0  # zero perturbation
    H[2] = -x  # cancels x* exactly
    H[3, 3] = 1e-305  # x* + h stays at or below POWER_FLOOR
    return x, H, (1e-6, p_star / 8, 1.0)


def test_abs_pow_equals_exp_of_p_log_exactly():
    x, H, grid = _grid_inputs()
    for p in grid:
        for values in (x, x + H):
            assert abs_pow(values, p).tobytes() == reference_abs_pow(values, p).tobytes()


@pytest.mark.parametrize("block", [False, True])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_grid_evaluations_equal_per_p_calls(block, order):
    x, H, grid = _grid_inputs()
    if order == "shuffled":
        grid = (grid[2], grid[0], grid[2], grid[1])  # unsorted, with a repeat
    h = H if block else H[5]
    y = x + h
    powers = abs_pow(y, grid)
    assert powers.shape == (len(grid),) + y.shape
    for i, p in enumerate(grid):
        assert powers[i].tobytes() == abs_pow(y, p).tobytes()
    for g in (grid, list(grid), np.array(grid)):
        assert lp_power_sum(y, g) == [lp_power_sum(y, p) for p in grid]
        assert lp_margin(x, h, g) == [lp_margin(x, h, p) for p in grid]
    margins = lp_margin(x, h, grid)
    rows = margins if block else [[m] for m in margins]
    assert all(type(v) is float for row in rows for v in row)


def test_empty_and_invalid_grids():
    x, H, _ = _grid_inputs()
    assert abs_pow(x, []).shape == (0, x.size)
    assert lp_power_sum(x + H, []) == []
    assert lp_margin(x, H, ()) == []
    assert lp_margin(x, H[:0], [0.5, 1.0]) == [[], []]
    for bad in ([0.5, 0.0], [1.5], [0.5, -1e-3], [0.5, float("nan")], float("nan")):
        with pytest.raises(ValueError):
            abs_pow(x, bad)


def test_power_floor_is_subnormal_guard():
    assert 0.0 < POWER_FLOOR < 1e-250


def test_iter_subset_chunks_lexicographic_and_complete():
    got = np.concatenate(list(iter_subset_chunks(6, 3, chunk=4)), axis=0)
    want = np.array(list(itertools.combinations(range(6), 3)))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_iter_subset_chunks_empty_subset():
    chunks = list(iter_subset_chunks(5, 0))
    assert len(chunks) == 1
    assert chunks[0].shape == (1, 0)


def reference_subset_chunks(n, k, chunk):
    """The list-based chunking iter_subset_chunks must reproduce exactly."""
    if k == 0:
        yield np.empty((1, 0), dtype=np.intp)
        return
    it = itertools.combinations(range(n), k)
    while block := list(itertools.islice(it, chunk)):
        yield np.asarray(block, dtype=np.intp)


@pytest.mark.parametrize(
    "n, k, chunk",
    [(5, 0, 4096), (6, 6, 4096), (4, 6, 4096), (0, 0, 3), (7, 3, 4), (7, 3, 35), (9, 4, 5), (14, 8, 4096), (14, 8, 1000)],
)
def test_iter_subset_chunks_equal_reference_chunking(n, k, chunk):
    got = list(iter_subset_chunks(n, k, chunk=chunk))
    want = list(reference_subset_chunks(n, k, chunk))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.intp
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def test_check_budget_raises_past_cap():
    check_budget(10, 10, "ok at the cap")
    with pytest.raises(BudgetExceededError):
        check_budget(11, 10, "one past the cap")


def test_subset_budget_env_override(monkeypatch):
    monkeypatch.setenv("LP_EQUIV_BUDGET", "123")
    assert subset_budget(None) == 123
    assert subset_budget(77) == 77
    monkeypatch.delenv("LP_EQUIV_BUDGET")
    assert subset_budget(None) == 1_000_000
