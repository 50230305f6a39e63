"""
The equivalence threshold p*(A)
===============================

From the Gram spectrum of A -- largest eigenvalue lam_max and smallest
*nonzero* eigenvalue lam_min+ of A^T A -- the package derives

    p*(A) = min(1, 16 lam_min+^2 / ((sqrt(2)+1)^2 (lam_max - lam_min+)^2)),

the exponent below which the l_p sweeps in this package compare margins.
The float64 value is checked against two independent routes: the roots of
the worked example's characteristic polynomial, and the closed form on
singular values computed in 50-digit arithmetic (mpmath).
"""

import math

import mpmath

from lp_equiv import (
    VandermondeSpec,
    build_vandermonde,
    gram_spectrum,
    sample_instance,
    theorem1_coefficient,
)


def p_star_50_digits(A) -> float:
    """The closed form on the singular values of a full-row-rank A, in 50 digits."""
    with mpmath.workdps(50):
        s = sorted(mpmath.svd_r(mpmath.matrix(A.entries.tolist()), compute_uv=False), reverse=True)
        lmax, lmp = s[0] ** 2, s[-1] ** 2
        if lmp == lmax:
            return 1.0
        return float(min(1, 16 * lmp**2 / ((mpmath.sqrt(2) + 1) ** 2 * (lmax - lmp) ** 2)))

# --- worked example -----------------------------------------------------------
A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
summary = gram_spectrum(A)
print("worked example [[1,1,1],[1,2,3]]:")
print(f"  lam_max      = {summary.lambda_max:.12f}")
print(f"  lam_min+     = {summary.lambda_min_plus:.12f}")
print(f"  p*(A)        = {summary.p_star:.6e}")

# hand check: the nonzero Gram eigenvalues solve mu^2 - 17 mu + 6 = 0
disc = math.sqrt(17.0**2 - 4.0 * 6.0)
mu_max, mu_min = (17.0 + disc) / 2.0, (17.0 - disc) / 2.0
oracle = min(1.0, 16.0 * mu_min**2 / ((math.sqrt(2.0) + 1.0) ** 2 * (mu_max - mu_min) ** 2))
print(f"  char-poly oracle  = {oracle:.6e}  (rel diff {abs(oracle-summary.p_star)/oracle:.1e})")

# the 50-digit route: the same closed form on singular values in mpmath
exact = p_star_50_digits(A)
print(f"  50-digit oracle   = {exact:.6e}  (rel diff {abs(exact-summary.p_star)/exact:.1e})\n")

# --- the coefficient curve crosses 1 exactly at p* ----------------------------
print("coefficient(p) around the threshold:")
for factor in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0):
    p = summary.p_star * factor
    c = theorem1_coefficient(p, summary.lambda_min_plus, summary.lambda_max)
    marker = "<= 1" if c <= 1.0 + 1e-12 else "> 1"
    print(f"  p = {factor:4.2f} * p*   coefficient = {c:.6f}   {marker}")
print()

# --- how the threshold moves with conditioning --------------------------------
# nontrivial thresholds need spectral spread lam_max/lam_min+ > ~2.66;
# higher powers (larger m) spread the spectrum quickly
print("sampled instances (threshold shrinks as the spectrum spreads):")
for m, n, seed in [(2, 7, 0), (3, 8, 0), (4, 9, 0), (5, 10, 0)]:
    spec = sample_instance(m, n, seed=seed)
    s = gram_spectrum(build_vandermonde(spec))
    spread = s.lambda_max / s.lambda_min_plus
    exact = p_star_50_digits(build_vandermonde(spec))
    print(
        f"  m={m} n={n}: lam_max/lam_min+ = {spread:10.2f}   p* = {s.p_star:.4e}"
        f"   (50-digit rel diff {abs(exact - s.p_star) / exact:.1e})"
    )
