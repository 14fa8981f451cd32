"""Match the random-radius strategy to a two-balls setting.

Comparing two strategies is only fair at equal utility cost, so the
random-radius Gamma law is fitted to the first two moments of the
two-balls squared perturbation. Those moments need no sampling: the exit
density times |z - theta|^2 is constant on the circle, so a center at
distance d from the home gives E[SP | d] = R^2 - d^2 and
E[SP^2 | d] = R^4 - d^4, and d^2 = r^2 u with u ~ Beta(a, b). Calibration
is then pure method of moments: alpha = m^2/v, rate = m/v.
"""

import numpy as np

from privregion.core import make_rng
from privregion.strategies import (
    RandomRadius,
    TwoBalls,
    calibrate_random_radius,
    sample_sps,
)
from privregion.core import BetaParams

tb = TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0))
rng = make_rng(123)

cal = calibrate_random_radius(tb)
g = cal.matched_gamma
print(f"two-balls r={tb.r} R={tb.R} Beta({tb.beta.alpha}, {tb.beta.beta})")
print(f"exact SP mean {cal.sp_mean:.4f} (R^2 - r^2 a/(a+b)), variance {cal.sp_var:.4f}")
print(f"matched Gamma: alpha={g.alpha:.4f}, rate={g.beta:.4f} "
      f"(mean {g.mean:.4f})")

# check: sampled SPs of both strategies reproduce the closed-form moments
for name, spec in (("two-balls", tb), ("random-radius", RandomRadius(g))):
    sps = sample_sps(spec, 100_000, rng)
    print(f"{name} check, 100000 draws: mean {sps.mean():.4f}, var {sps.var():.4f}")

# scaling rule: doubling all lengths multiplies SPs by 4, so alpha is
# unchanged and the rate drops by exactly 4
tb2 = TwoBalls(2.0 * tb.r, 2.0 * tb.R, tb.beta)
g2 = calibrate_random_radius(tb2).matched_gamma
print(f"\nscaled setting r={tb2.r} R={tb2.R}: alpha={g2.alpha:.4f} "
      f"(same), rate={g2.beta:.4f} (= {g.beta:.4f}/4: {np.isclose(g2.beta, g.beta / 4)})")
