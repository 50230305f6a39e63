"""
The deep regime: (m+1)/2 <= k <= m
==================================

With k at or beyond half the spark the sparsest solution is no longer
forced to be unique, yet the margin claim survives at exponents below
half the limit threshold p*(A^(0)):

  * wide instances (n >= 2m+2) go through the scaled augmentation: each
    kernel vector h lifts to the augmented system, the bound chain runs
    in the p-power domain (the raw scales overflow float64 on purpose),
    and the original margin ||x*+h||_p^p - ||x*||_p^p is checked last;
  * narrow instances (m < n < 2m+2) first extend the node set to
    2m+2 nodes, embed x*, and reuse the same machinery.

Both harnesses plant their own x* at the level k they are given, as the T1
harness does, and report every sampled margin; violations would be dumped
with enough data to replay.
"""

import numpy as np

from lp_equiv import (
    SparseProblem,
    build_vandermonde,
    sample_instance,
    solve_l0,
    verify_theorem2,
    verify_theorem3,
)

# --- wide regime -----------------------------------------------------------------
spec = sample_instance(2, 8, seed=42)
A = build_vandermonde(spec)
rep = verify_theorem2(spec, 2, trials=30, seed=3)   # plants x* at k = m: deep end
l0 = solve_l0(SparseProblem(A, A.entries @ np.array(rep.x_star)))
print(f"wide instance m={spec.m} n={spec.n}, planted k={rep.k}")
print(f"  x* is a sparsest solution: {l0.level == rep.k} "
      f"({len(l0.solutions)} tied sparsest solutions exist)")
print(f"  p*(A^(0)) = {rep.p_star0:.4e}, checking at p = {rep.p_check:.4e}")
print(f"  threshold gaps along t: monotone={rep.limit_monotone}, "
      f"final ratio {rep.final_gap_ratio:.2e}")
print(f"  margin_min over {rep.trials} sampled kernel vectors = {rep.margin_min:+.4e}")
print(f"  violations: {len(rep.violations)}\n")

# --- narrow regime -----------------------------------------------------------------
spec3 = sample_instance(3, 5, seed=5)
rep3 = verify_theorem3(spec3, 3, trials=30, seed=3)
print(f"narrow instance m={spec3.m} n={spec3.n} (< 2m+2), planted k={rep3.k}")
print(f"  node set extended to n' = {rep3.extended_n} = 2m+2, originals kept in place")
print(f"  embed residual {rep3.worst_embed_residual:.2e}, "
      f"block residual {rep3.worst_block_residual:.2e}")
print(f"  margin_min over {rep3.trials} sampled kernel vectors = {rep3.margin_min:+.4e}")
print(f"  violations: {len(rep3.violations)}\n")

print("note: with k = m every invertible m-column subset reproduces b, so the")
print("sampled-h margins are evidence over the declared sampler classes, not a proof")
