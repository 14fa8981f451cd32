"""Attack one user's published exit points and see what leaks.

One user, fifty published trajectories. Under two-balls all exits lie
on a single shared circle whose center the attacker recovers exactly,
yet the home stays hidden inside the small prior ball. Under the
calibrated random-radius strategy every exit is centered on the home
itself, and the posterior collapses onto it.
"""

from privregion.core import BetaParams, Point, make_rng
from privregion.inference import attack, recover_center
from privregion.strategies import (
    RandomRadius,
    TwoBalls,
    calibrate_random_radius,
    generate_observations,
)

home = Point(4.0, -2.5)
tb = TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0))
rng = make_rng(2026)
n = 50

obs_tb = generate_observations(home, tb, n, rng)
(center,) = recover_center(obs_tb.positions, tb.R)  # one candidate: three or more exits fix it
print(f"true home: ({home.x}, {home.y})")
print(f"two-balls: attacker recovers the shared center exactly at "
      f"({center[0]:.3f}, {center[1]:.3f})")

rep_tb = attack(obs_tb, home, rng)
m = rep_tb.posterior_mean
print(f"  posterior mean ({m.x:.3f}, {m.y:.3f}), posterior MSE "
      f"{rep_tb.posterior_mse:.3f} = bias^2 {rep_tb.bias2:.3f} + var {rep_tb.variance:.3f}")
print(f"  quadrature: {rep_tb.rule} rule of {rep_tb.nodes} radial x {2 * rep_tb.nodes} angular "
      f"nodes ({rep_tb.grids} rules evaluated), gap to the half-size rule "
      f"{rep_tb.rule_gap:.2g}, {rep_tb.wall_time * 1e3:.1f} ms")

# same utility cost, per-trajectory regions centered on the home
cal = calibrate_random_radius(tb)
rr = RandomRadius(cal.matched_gamma)
obs_rr = generate_observations(home, rr, n, rng)
rep_rr = attack(obs_rr, home, rng)
m = rep_rr.posterior_mean
print(f"random-radius at matched SP moments:")
print(f"  posterior mean ({m.x:.3f}, {m.y:.3f}), posterior MSE "
      f"{rep_rr.posterior_mse:.3f}")
print(f"  quadrature: {rep_rr.rule} rule of {rep_rr.nodes}x{rep_rr.nodes} nodes "
      f"({rep_rr.grids} rules evaluated), gap to the half-size rule "
      f"{rep_rr.rule_gap:.2g}, {rep_rr.wall_time * 1e3:.1f} ms")

ratio = rep_tb.posterior_mse / rep_rr.posterior_mse
print(f"\nsame average perturbation, {ratio:.1f}x more residual "
      f"uncertainty about the home under two-balls")

# the centroid of random-radius exits is already a giveaway
cent = obs_rr.positions.mean(axis=0)
print(f"(random-radius exit centroid alone: ({cent[0]:.3f}, {cent[1]:.3f}))")
