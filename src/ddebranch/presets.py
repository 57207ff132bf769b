"""Built-in problem presets.

* "sunflower": the second-order equation y'' = a(t) y' + lam * phi(y, yd)
  with a periodic damping coefficient, reduced to the planar coupled system
  x' = lam * phi / sigma(t), y' = (x - y) * sigma(t) through the sigma
  transform.
* "classic-sunflower": constant coefficients alpha, beta, delay r; the
  damping becomes a = -alpha/r and the parameter value lam = -beta/r with
  phi(y, yd) = sin(yd).

Both build phi from the DSL (dsl_phi), so the compiled stage of their
reduced problems inlines phi's expression (lienard.lienard_reduce).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import expr as dsl
from .errors import InvalidParameterError
from .lienard import ScalarDelayProblem, SigmaResult, lienard_reduce, sigma_transform
from .problem import BatchField, CoupledProblem, PeriodicFn1D


class SunflowerSetup(NamedTuple):
    """A reduced sunflower-like problem together with its ingredients."""

    scalar: ScalarDelayProblem
    sigma: SigmaResult
    coupled: CoupledProblem


def dsl_phi(phi_e: dsl.Expr) -> BatchField:
    """phi(y, yd) from its DSL expression in y1 and yd1: the compiled
    function, carrying the expression."""
    return BatchField(dsl.compile_function(phi_e, ["y1", "yd1"]), [phi_e])


def sunflower_setup(
    a: PeriodicFn1D,
    phi: Callable[[float, float], float],
    period: float,
    delay: float,
) -> SunflowerSetup:
    """Reduce y'' = a(t) y' + lam * phi(y, y(t-r)) to the planar system;
    phi is a callable or a dsl_phi."""
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
    if beta > 0:
        raise InvalidParameterError(
            f"classic sunflower requires beta <= 0 (lam = -beta/r = {-beta / delay} < 0)"
        )
    lam = abs(beta) / delay  # not -beta / delay, which reads -0.0 at beta = 0
    a0 = -alpha / delay
    if a0 == 0.0:
        raise InvalidParameterError("alpha must be nonzero (<a> != 0 required)")
    a = PeriodicFn1D.constant(a0, period)
    setup = sunflower_setup(a, dsl_phi(dsl.parse("sin(yd1)", {"y1", "yd1"})), period, delay)
    return setup, lam
