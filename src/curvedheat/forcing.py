"""Time forcing h(t) for the reaction term: three closed-form families.

``one``          h = 1,            H(t) = t
``power_law``    h = (1+t)^q,      H(t) = ((1+t)^{q+1} - 1)/(q+1),  q > -1
``exponential``  h = e^{sigma t},  H(t) = (e^{sigma t} - 1)/sigma,  sigma > 0

The power law is anchored at 1+t rather than t so that h stays positive
and continuous at t = 0 while keeping the t^q growth rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Forcing"]


@dataclass(frozen=True)
class Forcing:
    kind: str  # "one" | "power" | "exp"
    q: float = 0.0
    sigma: float = 0.0

    @staticmethod
    def one() -> "Forcing":
        return Forcing("one")

    @staticmethod
    def power_law(q: float) -> "Forcing":
        if q <= -1:
            raise ValueError(f"power-law exponent must be > -1, got {q}")
        return Forcing("power", q=float(q))

    @staticmethod
    def exponential(sigma: float) -> "Forcing":
        if sigma <= 0:
            raise ValueError(f"exponential rate must be positive, got {sigma}")
        return Forcing("exp", sigma=float(sigma))

    def h(self, t):
        """h at t, a scalar or an array; each entry is the same bits either way."""
        t = np.asarray(t, dtype=float)
        if self.kind == "one":
            return np.ones_like(t)
        if self.kind == "power":
            # the ufunc, not a scalar's ** (libm pow), which can differ in the last bit
            return np.power(1.0 + t, self.q)
        if self.kind == "exp":
            return np.exp(self.sigma * t)
        raise ValueError(f"unknown forcing kind {self.kind!r}")

    def H(self, t):
        """Cumulative integral of h from 0 to t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "one":
            return t * 1.0
        if self.kind == "power":
            return ((1.0 + t) ** (self.q + 1.0) - 1.0) / (self.q + 1.0)
        if self.kind == "exp":
            return np.expm1(self.sigma * t) / self.sigma
        raise ValueError(f"unknown forcing kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "one":
            return "h=1"
        if self.kind == "power":
            return f"h=(1+t)^{self.q:g}"
        return f"h=exp({self.sigma:g} t)"
