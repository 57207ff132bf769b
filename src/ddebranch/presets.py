"""Built-in problem presets.

* "sunflower": the second-order equation y'' = a(t) y' + lam * phi(y, yd)
  with a periodic damping coefficient, reduced to the planar coupled system
  through the sigma transform (G(y) = y).
* "classic-sunflower": constant coefficients alpha, beta, delay r; the
  damping becomes a = -alpha/r and the parameter value lam = -beta/r with
  phi(y, yd) = sin(yd).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError
from .lienard import ScalarDelayProblem, SigmaResult, lienard_reduce, sigma_transform
from .problem import CoupledProblem, PeriodicFn1D


@dataclass(frozen=True)
class SunflowerSetup:
    """A reduced sunflower-like problem together with its ingredients."""

    scalar: ScalarDelayProblem
    sigma: SigmaResult
    coupled: CoupledProblem


def sunflower_setup(
    a: PeriodicFn1D,
    phi: Callable[[float, float], float],
    period: float,
    delay: float,
) -> SunflowerSetup:
    """Reduce y'' = a(t) y' + lam * phi(y, y(t-r)) to the planar system."""
    scalar = ScalarDelayProblem.from_phi(a, phi, period, delay)
    sig = sigma_transform(a)
    coupled = lienard_reduce(scalar, sig.sigma)
    return SunflowerSetup(scalar=scalar, sigma=sig, coupled=coupled)


def default_sunflower(period: float = 2.0 * np.pi, delay: float = 1.0) -> SunflowerSetup:
    """The suite's reference instance: a(t) = -1 + 0.5 sin t, phi = sin(yd)."""
    a = PeriodicFn1D(eval=lambda t: -1.0 + 0.5 * np.sin(t), period=period)
    return sunflower_setup(a, lambda y, yd: np.sin(yd), period, delay)


def classic_sunflower_setup(
    alpha: float, beta: float, delay: float, period: float
):
    """The constant-coefficient sunflower equation mapped to the
    parametrized form; returns (setup, lam) with lam = -beta/r.

    beta must be <= 0 so the parameter value is nonnegative.
    """
    if delay <= 0:
        raise InvalidParameterError(f"delay must be positive, got {delay}")
    lam = -beta / delay
    if lam < 0:
        raise InvalidParameterError(
            f"classic sunflower requires beta <= 0 (lam = -beta/r = {lam} < 0)"
        )
    a0 = -alpha / delay
    if a0 == 0.0:
        raise InvalidParameterError("alpha must be nonzero (<a> != 0 required)")
    a = PeriodicFn1D.constant(a0, period)
    setup = sunflower_setup(a, lambda y, yd: np.sin(yd), period, delay)
    return setup, lam
