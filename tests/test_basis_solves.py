"""The two solves of the basis scan: the stacked SVD (_solve_supports) and, for
the square bases the determinant screen clears, the stacked LU (_solve_bases).

* The SVD block is bit-identical to solving one support at a time
  (test_solvers._solve_one_support): it still serves the bases the screen
  leaves open and every support read off a basis.
* The screen is sound: a basis it clears has full numerical rank under the
  SVD rank test, so the LU path never keeps a basis the SVD would drop.
* Both paths sit within the forward-error bound of test_solvers.COEFF_FACTOR
  of a 50-digit mpmath solve.
"""

import itertools

import numpy as np
import pytest

from lp_equiv.matgen import (
    DEFAULT_ABS_RANGE,
    DEFAULT_SEPARATION,
    MAX_M,
    DenseMatrix,
    VandermondeSpec,
    build_vandermonde,
    sample_instance,
)
from lp_equiv.numerics import RANK_TOL, SCREEN_FACTOR, _ratio_lower_bound, numerical_rank
from lp_equiv.solvers import (
    SparseProblem,
    _solve_bases,
    _solve_supports,
    enumerate_basic_solutions,
    plant_sparse_instance,
)
from test_solvers import (
    COEFF_FACTOR,
    _assert_same_basics,
    _recorded_svd_solves,
    _reference_scan,
    _solve_one_support,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

SMALL_INTS = st.integers(-2, 2).map(float)


def _subsets(n, k):
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def _stacked(M, supports):
    return np.moveaxis(M[:, supports], 1, 0)


def _cleared(M, bases):
    return _ratio_lower_bound(_stacked(M, bases)) > SCREEN_FACTOR * RANK_TOL


@st.composite
def clustered_node_matrices(draw):
    """Node matrices up to MAX_M whose |nodes| sit DEFAULT_SEPARATION apart,
    the closest the sampler allows, with random signs and order."""
    m = draw(st.integers(1, MAX_M))
    n = draw(st.integers(m + 1, m + 3))
    lo, hi = DEFAULT_ABS_RANGE
    start = draw(st.floats(lo, hi - (n - 1) * DEFAULT_SEPARATION))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    lam = [signs[j] * (start + order[j] * DEFAULT_SEPARATION) for j in range(n)]
    return build_vandermonde(VandermondeSpec(m, tuple(lam))).entries


@st.composite
def small_integer_matrices(draw):
    """Entries in -2..2: exactly singular square bases are common."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m + 1, 7))
    return draw(hnp.arrays(float, (m, n), elements=SMALL_INTS))


@settings(max_examples=60, deadline=None)
@given(M=st.one_of(small_integer_matrices(), clustered_node_matrices()), data=st.data())
def test_stacked_svd_solves_equal_one_support_at_a_time(M, data):
    x = data.draw(hnp.arrays(float, M.shape[1], elements=st.sampled_from([0.0, 0.5, -1.25, 3.0])))
    b = M @ x
    for size in range(1, M.shape[0] + 1):
        supports = _subsets(M.shape[1], size)
        full, coeff, res = _solve_supports(M, b, supports)
        expected = [_solve_one_support(M, b, s) for s in supports.tolist()]
        assert full.tolist() == [e is not None for e in expected]
        kept = [e for e in expected if e is not None]
        assert [c.tolist() for c in coeff] == [c.tolist() for c, _ in kept]
        assert res.tolist() == [r for _, r in kept]


@settings(max_examples=80, deadline=None)
@given(M=st.one_of(small_integer_matrices(), clustered_node_matrices()))
def test_every_basis_the_screen_clears_has_full_numerical_rank(M):
    bases = _subsets(M.shape[1], M.shape[0])
    cleared = _cleared(M, bases)
    ranks = numerical_rank(np.linalg.svd(_stacked(M, bases), compute_uv=False))
    assert np.all(ranks[cleared] == M.shape[0])


def test_the_screen_leaves_singular_and_ill_conditioned_bases_open():
    # the property above is not vacuous: an exactly singular integer basis is
    # left open, and on clustered nodes with alternating signs at m = 7 the
    # screen clears some bases and leaves others, all of full rank, to the
    # SVD (it is one-sided: at m = MAX_M it clears none of them)
    M = np.array([[1.0, 2.0, 0.0, 1.0], [1.0, 2.0, 1.0, -1.0]])
    assert _cleared(M, _subsets(4, 2)).tolist() == [False, True, True, True, True, True]
    for m, cleared_count in ((7, 30), (MAX_M, 0)):
        lo = DEFAULT_ABS_RANGE[0]
        lam = [(-1.0) ** j * (lo + j * DEFAULT_SEPARATION) for j in range(m + 2)]
        A = build_vandermonde(VandermondeSpec(m, tuple(lam))).entries
        bases = _subsets(m + 2, m)
        ranks = numerical_rank(np.linalg.svd(_stacked(A, bases), compute_uv=False))
        assert np.all(ranks == m)
        assert _cleared(A, bases).sum() == cleared_count


def _near_singular_problem(rho):
    """A 3 x 6 node matrix whose column 2 is replaced so that the basis
    (0, 1, 2) has sigma_min/sigma_max of order rho; b is planted on (3, 4)."""
    A = build_vandermonde(sample_instance(3, 6, seed=0)).entries.copy()
    A[:, 2] = A[:, 0] + A[:, 1] + rho * np.linalg.norm(A[:, :2]) * np.array([1.0, -2.0, 1.0])
    b = A[:, 3] - 0.75 * A[:, 4]
    return A, SparseProblem(DenseMatrix(A), b)


@pytest.mark.parametrize("rho, kept", [(1e-13, False), (1e-9, True)])
def test_a_near_singular_basis_goes_to_the_svd(rho, kept, monkeypatch):
    # below RANK_TOL the SVD drops the basis; between RANK_TOL and the
    # screen's SCREEN_FACTOR * RANK_TOL the SVD keeps it.  Either way the
    # screen leaves it open and the SVD decides, exactly as the reference does
    A, prob = _near_singular_problem(rho)
    basis = np.array([[0, 1, 2]])
    ratio = np.linalg.svd(A[:, [0, 1, 2]], compute_uv=False)
    assert (ratio[-1] / ratio[0] > RANK_TOL) == kept
    assert not _cleared(A, basis)[0]
    solved = _recorded_svd_solves(monkeypatch)
    got = enumerate_basic_solutions(prob)
    assert (0, 1, 2) in solved
    assert ((0, 1, 2) in [s.support for s in got]) == kept
    _assert_same_basics(A, got, _reference_scan(prob)[1])


def _mp_solve(sub, b):
    """The exact solution of sub c = b to 50 digits, rounded to float64."""
    import mpmath

    with mpmath.workdps(50):
        c = mpmath.lu_solve(mpmath.matrix(sub.tolist()), mpmath.matrix(b.tolist()))
        return np.array([float(v) for v in c])


def _oracle_problems(m):
    """(A, b) at m rows: sampled node matrices (n = m+1 and m+3, seeds 0..4)
    with a planted b, and Gaussian matrices with a Gaussian b.  The screen
    clears no basis of a sampled node matrix at m = MAX_M (none over seeds
    0..99 at n = 9 and 10), so there the Gaussian ones carry the check."""
    rng = np.random.default_rng(m)
    for n, seed in itertools.product((m + 1, m + 3), range(5)):
        A = build_vandermonde(sample_instance(m, n, seed=seed))
        yield A.entries, plant_sparse_instance(A, max(1, m // 2), seed).problem.b
        yield rng.standard_normal((m, n)), rng.standard_normal(m)


@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_lu_and_svd_coefficients_are_near_a_50_digit_solve(m):
    # each path's forward error is at most half the two-solve bound of
    # test_solvers.COEFF_FACTOR: (COEFF_FACTOR / 2) r eps / beta ||c||
    rng = np.random.default_rng(m)
    eps = np.finfo(float).eps
    checked = 0
    for A, b in _oracle_problems(m):
        bases = _subsets(A.shape[1], m)
        beta = _ratio_lower_bound(_stacked(A, bases))
        cleared = np.flatnonzero(beta > SCREEN_FACTOR * RANK_TOL)
        pick = rng.choice(cleared, size=min(3, len(cleared)), replace=False)
        lu_cleared, lu, _ = _solve_bases(A, b, bases[pick])
        svd_full, svd, _ = _solve_supports(A, b, bases[pick])
        assert lu_cleared.all() and svd_full.all()
        for i, j in enumerate(pick.tolist()):
            exact = _mp_solve(A[:, bases[j]], b)
            bound = COEFF_FACTOR / 2 * m * eps / beta[j] * np.linalg.norm(exact)
            assert np.linalg.norm(lu[i] - exact) <= bound, ("lu", bases[j])
            assert np.linalg.norm(svd[i] - exact) <= bound, ("svd", bases[j])
            checked += 1
    assert checked >= 30
