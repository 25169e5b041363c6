"""
Poisson versus negative binomial on overdispersed counts
========================================================

Complication counts are more variable than a Poisson model allows. This
demo simulates such data, shows the Poisson goodness-of-fit test reject,
and lets the NB2 negative binomial recover the generating parameters.
"""

import numpy as np

from surgnet.regression import (DesignMatrix, lr_test_alpha, negbin_fit,
                                negbin_start, poisson_fit, poisson_gof)

# Simulate counts with mean exp(0.4 * x + 0.2) and NB2 heterogeneity
# alpha = 1.2 (variance mu + alpha * mu^2) via the gamma-Poisson mixture.
rng = np.random.default_rng(7)
n, alpha = 3000, 1.2
x = rng.normal(0.0, 1.0, size=n)
mu = np.exp(0.4 * x + 0.2)
y = rng.poisson(rng.gamma(shape=1.0 / alpha, scale=alpha * mu))
print(f"simulated: mean {y.mean():.2f}, variance {y.var():.2f} "
      f"(Poisson would have them equal)")

# The design matrix carries named columns; the intercept _cons is
# appended last, matching the reported coefficient order.
dm = DesignMatrix.build(y, {"x": x})

pois = poisson_fit(dm)
print("\npoisson fit")
for name, b, se in zip(pois.columns, pois.coef, pois.std_err):
    print(f"  {name:<6} {b:8.4f}  (se {se:.4f})")

# The Pearson chi-square statistic is far above its degrees of freedom:
# the equidispersion assumption fails.
gof = poisson_gof(pois, dm)
print(f"goodness of fit: pearson chi2 {gof.pearson_chi2:.1f} "
      f"on {gof.df} df, p = {gof.p_value:.3g}")

# The NB2 model absorbs the extra variance into alpha and recovers the
# generating coefficients. Its iteration starts from the Poisson fit.
nb = negbin_fit(dm, start=negbin_start(pois, dm))
print("\nnegative binomial fit")
for name, b, se in zip(nb.columns, nb.coef, nb.std_err):
    print(f"  {name:<6} {b:8.4f}  (se {se:.4f})")
print(f"  alpha  {nb.alpha:8.4f}  (true {alpha}), "
      f"95% CI ({nb.alpha_ci[0]:.3f}, {nb.alpha_ci[1]:.3f})")

# Because alpha = 0 sits on the parameter boundary, the likelihood-ratio
# test uses the 50:50 mixture of a point mass and chi-square(1).
lr = lr_test_alpha(pois, nb)
print(f"\nLR test of alpha=0: chibar2(01) = {lr.statistic:.1f}, "
      f"p = {lr.p_value:.3g}")
print(f"log-likelihood: poisson {pois.log_likelihood:.1f}, "
      f"negbin {nb.log_likelihood:.1f}")
