"""
Margins below the threshold: where l_p finds the sparsest solution
==================================================================

Plant a k-sparse solution x* (k < spark/2, so x* is the unique sparsest
one), then look at two things across a grid of exponents p:

  * the margin  min_h ||x* + h||_p^p - ||x*||_p^p  over sampled kernel
    vectors h -- positive means no sampled perturbation beats x*;
  * the support of the best *basic* solution under ||.||_p^p -- does the
    l_p argmin land on the sparsest support?

Below p*(A) both hold; above it the argmin can escape to a denser
support.  The step-by-step audit of the bound chain behind the margin
claim is printed for one instance at the end.
"""

import numpy as np

from lp_equiv import (
    audit_theorem1_chain,
    build_vandermonde,
    gram_spectrum,
    null_space_basis,
    plant_with_level,
    sample_instance,
    verify_theorem1,
)

# --- one instance, full sweep --------------------------------------------------
spec = sample_instance(2, 7, seed=21)
A = build_vandermonde(spec)
report = verify_theorem1(A, k=1, trials=210, seed=5)
print(f"instance m=2 n=7, spark={report.spark}, p* = {report.p_star:.4e}")
print(f"planted level {report.level}, recovered by l0: {report.recovered}, "
      f"unique: {report.l0_unique}\n")

print("   p/p*      margin_min   argmin on sparsest support")
for r in report.reports:
    rel = r.p / report.p_star
    tag = "below" if r.below_threshold else "ABOVE"
    print(f"  {rel:8.3f}  {r.margin_min:+.4e}   {str(r.argmin_match):5s}   ({tag})")
print(f"\nall below-threshold checks hold: {report.all_hold}")
print(f"counterexamples: {len(report.counterexamples)}\n")

# --- the audit: every inequality in the margin argument, one line each ---------
planted, _ = plant_with_level(A, 1, seed=31)
N = null_space_basis(A)
rng = np.random.default_rng(3)
h = N @ rng.standard_normal(N.shape[1])
h /= np.linalg.norm(h)
gram = gram_spectrum(A)

audit = audit_theorem1_chain(A, planted.x_star, h, 0.5 * gram.p_star, gram)
print(f"bound-chain audit at p = p*/2 (k={audit.k}, margin = {audit.margin:+.3e}):")
for step in audit.steps:
    kind = "asserted" if step.asserted else "reported"
    print(f"  [{'ok' if step.ok else 'XX'}] {step.name:22s} ({kind})")
print(f"asserted steps all hold: {audit.asserted_ok}")
print("reported steps are the known-loose links; the final margin stands either way")
