"""
The scaled augmentation A^(t) and its threshold limit
=====================================================

For n >= 2m+2 nodes, gluing m+2 scaled power rows and an identity block
onto A(m, n, lam) produces a (2m+2) x (n+m+2) matrix A^(t) whose spark
is 2m+3 -- maximal -- for *every* positive pair of glue scales
(x_t, y_t), when every minor its (2m+2)-column subsets reduce to is
nonzero: always for positive nodes, and for sampled signed ones unless the
draw lands where such a minor vanishes (at m = 1, three nodes summing to
zero).  As the scales shrink, A^(t) approaches the block-diagonal
limit A^(0) and the threshold p*(A^(t)) converges to p*(A^(0)).

Two facts are demonstrated:
  * the spark certificate at several glue scales (including harsh mixed
    ones that stress the rank test);
  * the gap |p*(A^(t)) - p*(A^(0))| collapsing along t = 10, 100, ...
"""

from lp_equiv import (
    AugmentedSpec,
    build_augmented_0,
    build_augmented_t,
    build_vandermonde,
    compute_spark,
    gram_spectrum,
    sample_instance,
    verify_prop1,
)

spec = sample_instance(2, 6, seed=11)
m, n = spec.m, spec.n
print(f"base instance: m={m}, n={n}, nodes={tuple(round(v, 3) for v in spec.lam)}")
print(f"A^(t) has shape ({2*m+2}, {n+m+2}); predicted spark = 2m+3 = {2*m+3}\n")

# --- spark across glue scales ---------------------------------------------------
print("spark certificates across (x_t, y_t):")
for x_t, y_t in [(1.0, 1.0), (0.1, 0.1), (0.01, 1.0), (1.0, 0.01), (0.01, 0.01)]:
    rep = verify_prop1(AugmentedSpec(base=spec, x_t=x_t, y_t=y_t))
    print(f"  x_t={x_t:<5} y_t={y_t:<5} spark={rep.certificate.spark}  passes={rep.passes}")
print()

# --- the block-diagonal limit keeps the small spark ------------------------------
A0 = build_augmented_0(spec)
cert0 = compute_spark(A0)
base_cert = compute_spark(build_vandermonde(spec))
print("the t -> 0 limit A^(0) is different in kind:")
print(f"  spark(A^(0)) = {cert0.spark} with witness {cert0.witness}")
print(f"  -> equals spark of the base matrix ({base_cert.spark}): the appended rows")
print("     vanish on the left block, so base dependencies survive unchanged\n")

# --- threshold convergence --------------------------------------------------------
p0 = gram_spectrum(A0).p_star
print(f"p*(A^(0)) = {p0:.6e}")
print("   t        p*(A^(t))      |gap|        gap ratio")
for t in (10.0, 100.0, 1000.0, 10000.0):
    At = build_augmented_t(AugmentedSpec(base=spec, x_t=1.0 / t, y_t=1.0 / t))
    pt = gram_spectrum(At).p_star
    gap = abs(pt - p0)
    print(f"  {t:7.0f}   {pt:.6e}   {gap:.3e}   {gap / p0:.3e}")
print("\nthe gap drops roughly two decades per decade of t once t is large")
