"""Privacy-region trajectory obfuscation and the attacks it must survive.

A user's published GPS tracks are cut at the boundary of a disk around
their home location. This package simulates the strategies for choosing
those disks, mounts the Bayesian attack that tries to recover the home
location from the published exit points, and measures the privacy each
strategy buys at matched utility cost.
"""

from . import core, harmonic, inference, strategies, trajectory, experiments

__version__ = "0.1.0"

__all__ = ["core", "harmonic", "inference", "strategies", "trajectory", "experiments", "__version__"]
