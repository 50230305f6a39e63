import itertools
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lp_equiv import numerics
from lp_equiv.matgen import build_vandermonde, sample_instance
from lp_equiv.numerics import (
    BLOCK,
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
from lp_equiv.solvers import KernelSamples, verify_strict_inequality
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


def bits(values):
    """Bit patterns of a list of floats: unlike ==, tells -0.0 from 0.0."""
    return [struct.pack("<d", v) for v in values]


def assert_bracketed(got, rows):
    """Each got[i] is the sum _row_sum defines for the list rows[i]: where
    math.fsum's result is zero or not finite, that result bit for bit;
    elsewhere a float of fsum's sign within k 2^-52 M_S of it, for k nonzero
    terms and M_S the exact sum of their magnitudes (the float sum's error
    gamma_(k-1) M_S plus fsum's rounding, u M_S)."""
    for g, row in zip(got, rows):
        want = math.fsum(row)
        if want == 0.0 or not math.isfinite(want):
            assert bits([g]) == bits([want]) or math.isnan(g) and math.isnan(want), (row, g)
            continue
        try:
            mass = math.fsum(map(abs, row))
        except OverflowError:
            mass = math.inf
        k = len(row) - row.count(0.0)
        assert (g > 0.0) == (want > 0.0) and abs(g - want) <= k * 2.0**-52 * mass, (row, g, want)


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
    assert isinstance(margins, np.ndarray) and margins.dtype == np.float64 and margins.shape == (64,)
    assert bits(margins) == bits([lp_margin(x, h, p) for h in H])
    assert bits(margins[1:2]) == bits([0.0])
    assert_bracketed(margins.tolist(), [(abs_pow(x + h, p) - abs_pow(x, p)).tolist() for h in H])

    powers = lp_power_sum(x + H, p)
    assert bits(powers) == bits([lp_power_sum(row, p) for row in x + H])
    assert_bracketed(powers.tolist(), [abs_pow(row, p).tolist() for row in x + H])
    # padded zeros add exactly nothing to a row sum
    assert bits(lp_power_sum(np.pad(x + H, ((0, 0), (0, 3))), p)) == bits(powers)


# Terms chosen to stress a row sum's sign: halfway ties against 1.0, signed
# zeros, subnormals, the extremes of the float range and magnitudes from
# 1e-20 to 1e20.  Infinities and NaNs have their own fixed cases.
SUM_TERMS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-106, 3 * 2.0**-53, 5e-324, -5e-324]
    ),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.floats(1e-20, 1e20) | st.floats(-1e20, -1e-20),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _assert_row_sums(d):
    """_row_sums(d) on a block: each row bit-identical to the 1-D call on
    that row, and bracketed as assert_bracketed checks."""
    rows = d.reshape(math.prod(d.shape[:-1]), d.shape[-1])
    got = np.asarray(numerics._row_sums(d), dtype=float).ravel().tolist()
    assert bits(got) == bits([numerics._row_sums(row) for row in rows])
    assert_bracketed(got, rows.tolist())


def _summable(rows):
    """The rows of rows whose fsum is finite: fsum raises on the others."""
    keep = []
    for row in rows:
        try:
            math.fsum(row)
        except OverflowError:
            continue
        keep.append(row)
    return keep


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_sums_have_fsums_sign_within_the_bracket(data):
    n = data.draw(st.integers(0, 12))
    rows = data.draw(st.lists(st.lists(SUM_TERMS, min_size=n, max_size=n), min_size=1, max_size=8))
    # rows whose second half negates the first, so that they cancel to exactly zero
    halves = [row[: n // 2] for row in rows[:2]]
    rows += [half + [-v for v in reversed(half)] + [-0.0] * (n % 2) for half in halves]
    rows = _summable(rows)
    d = np.array(rows, dtype=float).reshape(len(rows), n)
    _assert_row_sums(d)
    _assert_row_sums(d.reshape(1, len(rows), n))


@settings(max_examples=50, deadline=None)
@given(row=hnp.arrays(float, st.integers(1, 6), elements=SUM_TERMS))
def test_row_sums_across_a_block_boundary(row):
    # BLOCK + 1 rows, the drawn row at BLOCK - 1 and at BLOCK: each row's
    # sum depends on that row alone, wherever it sits
    d = np.tile(np.array([[1.0, 2.0**-53, -0.0, 1e20, -1e20, 5e-324]])[:, : row.size], (BLOCK + 1, 1))
    d[BLOCK - 1] = d[BLOCK] = row
    if _summable([row.tolist()]):
        got = numerics._row_sums(d)
        assert bits(got[BLOCK - 1 : BLOCK + 1]) == bits([numerics._row_sums(row)] * 2)
        assert_bracketed(got.tolist(), d.tolist())


@pytest.mark.parametrize(
    "row",
    [
        [],
        [-0.0],
        [-0.0, -0.0],
        [0.0, -0.0],
        [1.0, 2.0**-53],  # halfway: ties to even, down to 1.0
        [1.0 + 2.0**-52, 2.0**-53],  # halfway: ties to even, up
        [5e-324, -5e-324],
        [2.0**-1073, 5e-324, -(2.0**-1074)],
        [1e20, 1.0, -1e20, -1.0],
    ],
)
def test_row_sums_fixed_edge_cases(row):
    _assert_row_sums(np.array([row, row[::-1]], dtype=float).reshape(2, len(row)))


def test_bound_test_decides_the_rows_it_accepts():
    # [1, 2**-53, -1] float-sums to 0.0 (1 + 2**-53 ties down to 1), but its
    # exact sum is 2**-53: the bound cannot clear the float sum's sign, so
    # the row goes to fsum.  [1, 2**-52, -1] float-sums exactly and is kept.
    d = np.array([[1.0, 2.0**-53, -1.0], [1.0, 2.0**-52, -1.0], [1.0, 2.0, -1.0]])
    assert d.sum(axis=1).tolist() == [0.0, 2.0**-52, 2.0]
    assert numerics._row_sums(d).tolist() == [2.0**-53, 2.0**-52, 2.0]
    assert numerics._row_sums(d[0]) == 2.0**-53
    # the same cancellation through a margin at p = 1: x* + h gives the
    # terms 1, t and -1 for a float t <= 2**-53, so the float sum says tie
    # but the margin is t > 0, not a violation; x* = (1, 0), h = (-1, 1)
    # gives the terms -1 and 1, an exact zero, and a tie is a violation
    x = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
    hs = np.array([[1.0, 2.0**-54, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0, 1.0]])
    terms = abs_pow(x + hs[0], 1.0) - abs_pow(x, 1.0)
    t = float(terms[1])
    assert 0.0 < t <= 2.0**-53 and terms.sum() == 0.0 and terms[[0, 2, 3, 4]].tolist() == [1.0, -1.0, 0.0, 0.0]
    assert lp_margin(x, hs, 1.0).tolist() == [t, 0.0]
    samples = KernelSamples(vectors=hs, kinds=("unit", "unit"), scales=(1.0, 1.0))
    report = verify_strict_inequality(x, samples, 1.0)
    assert report.margins == (t, 0.0)
    assert [v["index"] for v in report.violations] == [1] and report.margin_min == 0.0


@pytest.mark.parametrize(
    "row, error",
    [
        ([math.inf, -math.inf], ValueError),
        ([1.0, math.inf, 2.0, -math.inf], ValueError),
        ([1e308, 1e308], OverflowError),
        ([1e308, 1e308, -1e308, 1e308], OverflowError),
        # fsum raises on an intermediate overflow even where the sum is finite
        ([1e308, 1e308, -1e308, -1e308, 1.0], OverflowError),
        # the float sums stay at the largest float (each 2**970 - ulp is below
        # half a spacing there) while the exact sum rounds past it
        ([sys.float_info.max, 2.0**970 * (1 - 2.0**-53), 2.0**970 * (1 - 2.0**-53)], OverflowError),
    ],
)
def test_row_sums_raise_as_fsum_raises(row, error):
    with pytest.raises(error):
        math.fsum(row)
    d = np.array([[1.0] * len(row), row])
    for block in (d, d[1]):
        with pytest.raises(error):
            numerics._row_sums(block)


def test_row_sums_keep_fsum_infinities_and_nans():
    d = np.array([[math.inf, 1.0], [-math.inf, -math.inf], [math.nan, 1.0], [math.inf, math.nan]])
    got = numerics._row_sums(d)
    assert got[:2].tolist() == [math.inf, -math.inf] and all(map(math.isnan, got[2:4]))
    assert [numerics._row_sums(row) for row in d[:2]] == [math.inf, -math.inf]
    assert all(math.isnan(numerics._row_sums(row)) for row in d[2:])


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


def masked_abs_pow(values, p):
    """abs_pow's path for input with an entry at or below POWER_FLOOR, taken
    whatever the input: the logarithms of the entries above it only,
    scattered into zeros."""
    ps = np.asarray(p, dtype=float)
    a = np.abs(np.asarray(values, dtype=float))
    out = np.zeros(ps.shape + a.shape)
    mask = a > POWER_FLOOR
    out[..., mask] = np.exp(np.multiply.outer(ps, np.log(a[mask])))
    return out


ABOVE_FLOOR = st.floats(2e-300, 1e300) | st.floats(-1e300, -2e-300)
AT_OR_BELOW_FLOOR = st.sampled_from([0.0, -0.0, POWER_FLOOR, -POWER_FLOOR, 1e-305, 5e-324])
POW_EXPONENTS = st.one_of(st.sampled_from([1e-16, 1e-6, 0.5, 1.0]), st.floats(1e-16, 1.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), floored=st.booleans())
def test_abs_pow_fast_path_equals_the_masked_path(data, floored):
    # without an entry at or below POWER_FLOOR, abs_pow takes every
    # logarithm and skips the scatter; both paths agree bit for bit
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5))
    values = data.draw(hnp.arrays(float, shape, elements=ABOVE_FLOOR))
    if floored:
        spots = data.draw(hnp.arrays(bool, shape))
        floor_values = data.draw(hnp.arrays(float, shape, elements=AT_OR_BELOW_FLOOR))
        values = np.where(spots, floor_values, values)
    p = data.draw(POW_EXPONENTS | st.lists(POW_EXPONENTS, min_size=1, max_size=4))
    got = abs_pow(values, p)
    want = masked_abs_pow(values, p)
    assert type(got) is np.ndarray and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
        assert lp_power_sum(y, g).tobytes() == np.array([lp_power_sum(y, p) for p in grid]).tobytes()
        assert lp_margin(x, h, g).tobytes() == np.array([lp_margin(x, h, p) for p in grid]).tobytes()
    margins = lp_margin(x, h, grid)
    assert margins.dtype == np.float64 and margins.shape == (len(grid),) + h.shape[:-1]


def test_empty_and_invalid_grids():
    x, H, _ = _grid_inputs()
    assert abs_pow(x, []).shape == (0, x.size)
    assert lp_power_sum(x + H, []).shape == (0, len(H))
    assert lp_margin(x, H, ()).shape == (0, len(H))
    assert lp_margin(x, H[:0], [0.5, 1.0]).shape == (2, 0)
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


def test_cached_subset_table_is_read_only_and_repeatable():
    first = list(iter_subset_chunks(7, 3))
    again = list(iter_subset_chunks(7, 3))
    assert len(first) == len(again) == 1
    assert np.array_equal(first[0], again[0])
    assert np.array_equal(first[0], np.array(list(itertools.combinations(range(7), 3))))
    with pytest.raises(ValueError):
        first[0][0, 0] = 6


def test_subset_table_cache_holds_at_most_its_stated_bytes():
    # the bound stated beside SUBSET_TABLE_CELLS: 32 tables or prefix plans
    # of 2**15 indices
    itemsize = np.dtype(np.intp).itemsize
    per_table = numerics.SUBSET_TABLE_CELLS * itemsize
    assert numerics.SUBSET_TABLE_CACHE * per_table <= 8 * 2**20
    numerics._subset_table.cache_clear()
    try:
        # every single-chunk enumeration up to n = 16, and the edge of the
        # cell cap: C(181, 180) x 180 = 32,580 entries fit, C(182, 181) x 181
        # = 32,942 do not and come out writable, outside the cache.  A cached
        # table's prefix plan is read-only and holds no more bytes than it
        pairs = [(n, k) for n in range(1, 17) for k in range(1, n + 1) if math.comb(n, k) <= BLOCK]
        for n, k in pairs + [(181, 180), (182, 181)]:
            (table,) = iter_subset_chunks(n, k)
            cached = not table.flags.writeable
            assert cached == (math.comb(n, k) * k <= numerics.SUBSET_TABLE_CELLS), (n, k)
            assert not cached or table.nbytes <= per_table
            if cached:
                plan = numerics._subset_table(n, k, min(k, 4))
                assert not any(a.flags.writeable for a in plan)
                assert sum(a.nbytes for a in plan) <= table.nbytes
        info = numerics._subset_table.cache_info()
        assert info.maxsize == numerics.SUBSET_TABLE_CACHE
        assert info.currsize == numerics.SUBSET_TABLE_CACHE < len(pairs)
    finally:
        numerics._subset_table.cache_clear()


def test_multi_chunk_enumerations_bypass_the_cache():
    numerics._subset_table.cache_clear()
    chunks = list(iter_subset_chunks(9, 4, chunk=5))
    assert len(chunks) == math.ceil(math.comb(9, 4) / 5)
    assert all(c.flags.writeable for c in chunks)
    assert numerics._subset_table.cache_info().currsize == 0


def test_check_budget_raises_past_cap(monkeypatch):
    monkeypatch.setenv("LP_EQUIV_BUDGET", "10")
    check_budget(10, "ok at the cap")
    with pytest.raises(BudgetExceededError):
        check_budget(11, "one past the cap")


def test_subset_budget_env_override(monkeypatch):
    monkeypatch.setenv("LP_EQUIV_BUDGET", "123")
    assert subset_budget() == 123
    # the environment variable is the cap's one setting: no call overrides it
    with pytest.raises(TypeError):
        subset_budget(77)
    monkeypatch.setenv("LP_EQUIV_BUDGET", "")
    assert subset_budget() == 1_000_000
    monkeypatch.delenv("LP_EQUIV_BUDGET")
    assert subset_budget() == 1_000_000


@pytest.mark.parametrize("value", ["0", "-1", "1e6", "abc"])
def test_malformed_cap_raises_naming_the_variable_and_value(value, monkeypatch):
    monkeypatch.setenv("LP_EQUIV_BUDGET", value)
    for read in (subset_budget, lambda: check_budget(1, "a one-subset scan")):
        with pytest.raises(ValueError, match=f"LP_EQUIV_BUDGET .*{value!r}"):
            read()


def test_row_sums_keep_fsums_sign_on_200000_seeded_rows():
    # 200,000 seeded rows of widths 1 to 12 (mixed magnitudes, halfway ties,
    # signed zeros, subnormals, exact cancellation) must have fsum's sign and
    # lie within the bracket of its value (assert_bracketed); each exact zero
    # must be fsum's 0.0
    rng = np.random.default_rng(2005)
    rows_total = 0
    for n in range(1, 13):
        r = 200_000 // 12 + (n <= 200_000 % 12)
        d = rng.choice([-1.0, 1.0], (r, n)) * 10.0 ** rng.uniform(-20, 20, (r, n))
        kind = rng.integers(0, 5, r)
        if n > 1:  # halfway ties: x + spacing(x) / 2, then tiny or zero terms
            tie = kind == 1
            d[tie, 1] = np.spacing(d[tie, 0]) / 2
            d[tie, 2:] *= (
                rng.choice([0.0, 2.0**-60], (tie.sum(), n - 2)) * np.spacing(d[tie, :1]) / 1e20
            )
        zeros = (kind == 2)[:, None] & (rng.random((r, n)) < 0.5)
        d[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        sub = kind == 3
        d[sub] = rng.integers(-(2**20), 2**20, (sub.sum(), n)) * 5e-324
        cancel = kind == 4  # the second half negates the first: an exact zero
        d[cancel, n - n // 2 :] = -d[cancel, : n // 2][:, ::-1]
        got = numerics._row_sums(d)
        assert len(got) == r
        assert_bracketed(got.tolist(), d.tolist())
        rows_total += r
    assert rows_total == 200_000
