"""Gauges and probes that only the tests use.

Smooth d = 1 kernels with closed-form transforms, for the identity checks,
and the intersection-existence probe of the acceptance suite.
"""
import math

import numpy as np

from addlevy.classify import ConvergenceVerdict, StableSystem, probe_intersection_dimension_test
from addlevy.kernels import Kernel, _radius


def exponential_kernel(rate: float = 1.0) -> Kernel:
    """kappa(x) = exp(-rate |x|) in d=1; transform 2 rate / (rate^2 + xi^2)."""
    return Kernel(
        eval=lambda x: np.exp(-rate * _radius(x, 1)),
        dim=1,
        fourier=lambda xi: 2.0 * rate / (rate ** 2 + _radius(xi, 1) ** 2),
    )


def gaussian_kernel(width: float = 1.0) -> Kernel:
    """kappa(x) = exp(-x^2 / (2 w^2)) in d=1; transform w sqrt(2 pi) e^{-w^2 xi^2/2}."""
    return Kernel(
        eval=lambda x: np.exp(-_radius(x, 1) ** 2 / (2.0 * width ** 2)),
        dim=1,
        fourier=lambda xi: width * math.sqrt(2.0 * math.pi)
        * np.exp(-(width * _radius(xi, 1)) ** 2 / 2.0),
    )


def cauchy_kernel(scale: float = 1.0) -> Kernel:
    """kappa(x) = 1 / (1 + (x/s)^2) in d=1; transform pi s e^{-s |xi|}."""
    return Kernel(
        eval=lambda x: 1.0 / (1.0 + (_radius(x, 1) / scale) ** 2),
        dim=1,
        fourier=lambda xi: math.pi * scale * np.exp(-scale * _radius(xi, 1)),
    )


def probe_intersections_exist(sys: StableSystem) -> ConvergenceVerdict:
    """Existence probe: the dimension test at s just above 0.

    Convergence there means some measure of positive energy lives on the
    intersection set, i.e. the processes meet.
    """
    return probe_intersection_dimension_test(sys, 1e-3)
