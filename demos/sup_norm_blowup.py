"""
Sup-norm blow-up of the variation ratio
=======================================

The witness is an alternating sign pattern on geometric intervals.  As the
heat-scale window deepens, the q-variation of the heat family picks up one
fresh oscillation per scale near the origin, while the plain sup norm of the
witness stays put.  The certified ratio therefore grows like depth^(1/q),
and the maximal operator, which forgets oscillation, stays flat.
"""
from varlat import ExperimentConfig, exp_linf_blowup, exp_maximal_contrast

# a coarse grid keeps the demo quick; the acceptance suite runs full size
config = ExperimentConfig(log_points_per_decade=16)
depths = (6, 10, 18, 34)

result = exp_linf_blowup(config, depths)
print("scales     ratio       growth vs first")
first = result.reports[0].ratio
for rep in result.reports:
    print(f"  {rep.param:5.0f}  {rep.ratio:.6f}   {rep.ratio / first:.3f}x")
print(f"fitted exponent {result.fit.slope:.4f} vs 1/q = {1.0 / config.q:.4f} "
      f"(r2 = {result.fit.r_squared:.5f})")
print(f"denominator {result.reports[0].denominator:.6f}: the plain norm of the "
      f"witness, (3 - a^k_min)^(1/p) in closed form, rounded up")

contrast = exp_maximal_contrast(config, depths)
print("\nsame runs, maximal operator instead of variation:")
for pair in contrast.extras["pairs"]:
    print(f"  j1={pair['j1']:3d}  variation {pair['variation_ratio']:.6f}  "
          f"maximal {pair['maximal_ratio']:.6f}")
print(f"variation grew {contrast.extras['variation_growth']:.2f}x while the maximal "
      f"ratio moved {contrast.extras['maximal_spread']:.2%}")
