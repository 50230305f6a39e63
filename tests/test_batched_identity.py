"""Property checks: block evaluations are bit-identical to one item at a time.

The references below are the per-sample margin, the per-p call, the
per-support solve loop, the per-step T2 loop and the per-sample T3 residual
loop that the block kernels replaced; every comparison is exact (==), except log10_x_t, which the T2
harness now derives from log x_t (see test_t2_steps_equal_per_step_loop).
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lp_equiv.matgen import (  # noqa: E402
    DenseMatrix,
    b_vectors,
    build_augmented_0,
    build_vandermonde,
    extend_lambda,
    power_rows,
    sample_instance,
)
from lp_equiv.numerics import (  # noqa: E402
    BLOCK,
    POWER_FLOOR,
    RANK_TOL,
    abs_pow,
    derive_seed,
    iter_subset_chunks,
    lp_margin,
    lp_power_sum,
    numerical_rank,
)
from lp_equiv.solvers import (  # noqa: E402
    DEFAULT_SCALES,
    DEFAULT_T_SCHEDULE,
    LIFT_RESIDUAL_FACTOR,
    MAX_EXPLICIT_SCALE,
    RESIDUAL_TOL,
    ZERO_COEFF,
    SparseProblem,
    SparseSolution,
    enumerate_basic_solutions,
    null_space_basis,
    sample_null,
    solve_l0,
    verify_theorem2,
    verify_theorem3,
)
from lp_equiv.spectral import gram_spectrum  # noqa: E402

ENTRIES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-301, -1e-300, 1e-320, 1.0]),
)
EXPONENTS = st.one_of(st.sampled_from([1e-6, 1.0]), st.floats(1e-6, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lp_margin_block_equals_per_sample_margins(data):
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(1, 6))
    x = data.draw(hnp.arrays(float, n, elements=ENTRIES))
    H = data.draw(hnp.arrays(float, (rows, n), elements=ENTRIES))
    p = data.draw(EXPONENTS)
    expected = [math.fsum((abs_pow(x + h, p) - abs_pow(x, p)).tolist()) for h in H]
    assert lp_margin(x, H, p) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_p_grid_equals_per_p_calls(data):
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(1, 6))
    x = data.draw(hnp.arrays(float, n, elements=ENTRIES))
    H = data.draw(hnp.arrays(float, (rows, n), elements=ENTRIES))
    grid = data.draw(st.lists(EXPONENTS, min_size=1, max_size=5))
    powers = abs_pow(x + H, grid)
    for i, p in enumerate(grid):
        assert powers[i].tobytes() == abs_pow(x + H, p).tobytes()
    assert lp_power_sum(x + H, grid) == [lp_power_sum(x + H, p) for p in grid]
    assert lp_power_sum(x, grid) == [lp_power_sum(x, p) for p in grid]
    assert lp_margin(x, H, grid) == [lp_margin(x, H, p) for p in grid]
    assert lp_margin(x, H[0], grid) == [lp_margin(x, H[0], p) for p in grid]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lp_margin_invariant_under_zero_padding(data):
    # zero coordinates in x* and in every h add |0|^p - |0|^p = 0 to an exact sum
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(1, 4))
    x = data.draw(hnp.arrays(float, n, elements=ENTRIES))
    H = data.draw(hnp.arrays(float, (rows, n), elements=ENTRIES))
    at = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=6))
    x_pad, H_pad = np.insert(x, at, 0.0), np.insert(H, at, 0.0, axis=1)
    p = data.draw(EXPONENTS)
    grid = data.draw(st.lists(EXPONENTS, min_size=1, max_size=4))
    for q in (p, grid):
        assert lp_margin(x_pad, H_pad, q) == lp_margin(x, H, q)
        assert lp_margin(x_pad, H_pad[0], q) == lp_margin(x, H[0], q)


def _solve_one_support(M, b, support):
    sub = M[:, list(support)]
    u, s, vt = np.linalg.svd(sub, full_matrices=False)
    if not (s[0] > 0.0 and int(np.sum(s > RANK_TOL * s[0])) == len(support)):
        return None
    coeff = vt.T @ ((u.T @ b) / s)
    return coeff, float(np.linalg.norm(sub @ coeff - b))


def _reference_scan(prob):
    """(supports solving b at each size, minimal-support basic solutions),
    one support at a time."""
    M, b = prob.matrix.entries, prob.b
    nb = float(np.linalg.norm(b))
    by_size, basics = {}, []
    for size in range(1, numerical_rank(np.linalg.svd(M, compute_uv=False)) + 1):
        by_size[size] = []
        for chunk in iter_subset_chunks(M.shape[1], size):
            for row in chunk.tolist():
                solved = _solve_one_support(M, b, row)
                if solved is None or solved[1] > RESIDUAL_TOL * nb:
                    continue
                sol = SparseSolution(tuple(row), tuple(solved[0].tolist()))
                by_size[size].append(sol)
                mag = np.abs(solved[0])
                if mag.max() > 0.0 and mag.min() > ZERO_COEFF * mag.max():
                    basics.append(sol)
    return by_size, tuple(basics)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_support_scans_equal_per_support_loop(data):
    # small integer entries make exactly dependent (rank-deficient) supports common
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(m + 1, 7))
    M = data.draw(hnp.arrays(float, (m, n), elements=st.integers(-2, 2).map(float)))
    x = data.draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.0, 0.5, -1.25, 3.0])))
    b = M @ x
    hypothesis.assume(np.linalg.norm(b) > 0.0)
    prob = SparseProblem(DenseMatrix(M), b)
    by_size, basics = _reference_scan(prob)
    level = min(size for size, sols in by_size.items() if sols)
    l0 = solve_l0(prob)
    assert (l0.level, l0.solutions) == (level, tuple(by_size[level]))
    assert enumerate_basic_solutions(prob) == basics


def _reference_t2_step(spec, p, h, l, order, t, tail, step):
    """The explicit-matrix keys of one T2 step from its own A_t, one SVD."""
    m, n = spec.m, spec.n
    labs = np.abs(l[order])
    log_x = math.log(m + 1) / p - math.log(labs[0]) - math.log(t)
    x_t = math.exp(log_x) if log_x < 709.0 else math.inf
    y_t = 1.0 / (labs[1] * t)
    if not (x_t <= MAX_EXPLICIT_SCALE and y_t <= MAX_EXPLICIT_SCALE):
        step["explicit_skipped"] = f"row scale above MAX_EXPLICIT_SCALE = {MAX_EXPLICIT_SCALE:g}"
        return
    scales = np.concatenate([[x_t], np.full(m + 1, y_t)])
    At = np.zeros((2 * m + 2, n + m + 2))
    At[:m, :n] = power_rows(spec.lam, np.arange(m))
    At[m:, :n] = scales[:, None] * b_vectors(spec)[order]
    At[m:, n:] = np.eye(m + 2)
    hhat = np.concatenate([h, [-x_t * l[order[0]]], tail])
    r = At @ hhat
    err = float(np.max(np.abs(r) / (np.abs(At) @ np.abs(hhat))))
    step["explicit_residual"] = float(np.linalg.norm(r))
    step["explicit_componentwise_backward_error"] = err
    step["explicit_componentwise_backward_error_ok"] = (
        err <= LIFT_RESIDUAL_FACTOR * (n + m + 2) * np.finfo(float).eps
    )
    spectrum = gram_spectrum(DenseMatrix(At))
    if spectrum.rank == 2 * m + 2:
        step["p_star_t"] = spectrum.p_star
        step["chain_applicable"] = p < spectrum.p_star
    else:
        step["p_star_t_skipped"] = (
            f"rank policy kept {spectrum.rank} of the {2 * m + 2} singular"
            " values of the explicit matrix"
        )


def _reference_t2_records(spec, x, p, t_schedule, samples):
    """verify_theorem2's records, one sample and one step at a time, with
    log10_x_t as the sum of base-10 logarithms."""
    m = spec.m
    B = b_vectors(spec)
    base_power = lp_power_sum(x, p)
    t_arr = np.asarray(t_schedule, dtype=float)
    records = []
    for idx, sample in enumerate(samples):
        h = sample.vector
        l = B @ h
        order = np.lexsort((np.arange(m + 2), -np.abs(l)))
        labs = np.abs(l[order])
        if labs[1] <= POWER_FLOOR:
            records.append(
                {"index": idx, "kind": sample.kind, "scale": sample.scale, "degenerate": True}
            )
            continue
        shifted_power = lp_power_sum(x + h, p)
        tails = -(l[order[1:]] / labs[1])[None, :] / t_arr[:, None]
        steps = []
        for t, tail, tail_power in zip(t_schedule, tails, lp_power_sum(tails, p)):
            head_power = (m + 1) / t**p
            step = {
                "t": t,
                "log10_x_t": math.log10(m + 1) / p - math.log10(labs[0]) - math.log10(t),
                "dominance_ok": head_power >= tail_power * (1.0 - 1e-12),
                "tail_bound_ok": bool(np.all(np.abs(tail[1:]) <= (1.0 / t) * (1.0 + 1e-12))),
                "chain_margin": (shifted_power + tail_power) - (base_power + head_power),
                "lifted_l0": int(np.sum(x != 0.0)) + 1,
            }
            _reference_t2_step(spec, p, h, l, order, t, tail, step)
            steps.append(step)
        records.append(
            {
                "index": idx,
                "kind": sample.kind,
                "scale": sample.scale,
                "l1_abs": float(labs[0]),
                "l2_abs": float(labs[1]),
                "final_margin": lp_margin(x, h, p),
                "steps": steps,
            }
        )
    return records


# log10_x_t was log10(m+1)/p - log10|l_(1)| - log10 t and is now log x_t / ln 10:
# each side rounds three logarithms, a quotient and two differences (the new one
# also ln 10 and one more quotient), each within half an ulp of the largest of
# the three terms, so the two differ by a few of its ulps (4 at most measured)
LOG10_ULPS = 8


@pytest.mark.parametrize(
    "m,n,seed,p_frac,t_schedule,trials",
    [
        *[(m, 2 * m + 2 + seed, seed, frac, DEFAULT_T_SCHEDULE, 21)
          for m in range(1, 5) for seed in (0, 1) for frac in (None, 0.9)],
        (2, 7, 3, None, (2.0, 30.0, 500.0), 21),
        (1, 4, 2, None, DEFAULT_T_SCHEDULE, BLOCK // len(DEFAULT_T_SCHEDULE) + 30),
    ],
)
def test_t2_steps_equal_per_step_loop(m, n, seed, p_frac, t_schedule, trials):
    spec = sample_instance(m, n, seed=seed)
    p_star0 = gram_spectrum(build_augmented_0(spec)).p_star
    p_check = None if p_frac is None else p_frac * p_star0
    rep = verify_theorem2(spec, m, p_check=p_check, t_schedule=t_schedule, trials=trials, seed=seed)
    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    samples = sample_null(build_vandermonde(spec), count, seed=derive_seed(seed, "thm2-null"))
    reference = _reference_t2_records(spec, np.array(rep.x_star), rep.p_check, t_schedule, samples)

    def pop_log10(records):
        return [
            (step.pop("log10_x_t"), record["l1_abs"], step["t"])
            for record in records
            for step in record.get("steps", ())
        ]

    got = list(rep.records)
    got_logs, ref_logs = pop_log10(got), pop_log10(reference)
    assert got == reference
    for (new, l1_abs, t), (old, _, _) in zip(got_logs, ref_logs, strict=True):
        largest = max(abs(math.log10(m + 1) / rep.p_check), abs(math.log10(l1_abs)), math.log10(t))
        assert abs(new - old) <= LOG10_ULPS * np.spacing(largest)
    explicit = sum("explicit_residual" in s for r in got for s in r.get("steps", ()))
    if m <= 2:
        assert explicit > 0
    if len(samples) * len(t_schedule) > BLOCK:
        assert explicit > BLOCK


def _reference_t3_residuals(spec, seed, trials):
    """verify_theorem3's worst embedding and block residuals, one padded
    kernel sample and one extended kernel basis vector at a time."""
    m, n = spec.m, spec.n
    ext = extend_lambda(spec, derive_seed(seed, "thm3-extend"))
    A_ext, A0_ext = build_vandermonde(ext), build_augmented_0(ext)
    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    samples = sample_null(build_vandermonde(spec), count, seed=derive_seed(seed, "thm3-null"))
    worst_embed = 0.0
    for sample in samples:
        h_tilde = np.pad(sample.vector, (0, ext.n - n))
        resid = float(np.linalg.norm(A_ext.entries @ h_tilde)) / float(np.linalg.norm(h_tilde))
        worst_embed = max(worst_embed, resid)
    ext_basis = null_space_basis(A_ext)
    worst_block = 0.0
    for j in range(ext_basis.shape[1]):
        g = np.concatenate([ext_basis[:, j], np.zeros(m + 2)])
        worst_block = max(worst_block, float(np.linalg.norm(A0_ext.entries @ g)))
    return worst_embed, worst_block


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (3, 5), (3, 6)])
def test_t3_residuals_equal_per_sample_loop(m, n, seed):
    spec = sample_instance(m, n, seed=seed)
    rep = verify_theorem3(spec, m, trials=21, seed=seed)
    assert (rep.worst_embed_residual, rep.worst_block_residual) == _reference_t3_residuals(
        spec, seed, 21
    )
