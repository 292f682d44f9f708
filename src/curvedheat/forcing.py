"""Time forcing h(t) for the reaction term: three closed-form families.

The forcing enters the class of global data only through its damped
integral D(m, t) = int_0^t h(s) e^{-m s} ds, read at m = (p-1) lam:

``one``          h = 1,            D = (1 - e^{-m t})/m
``power_law``    h = (1+t)^q,      D = U(m) - e^{-m t} (1+t)^{q+1} U(m (1+t)),  q > -1
                                     = e^{-m t} (1+t)^{q+1} L(m (1+t)) - L(m)
``exponential``  h = e^{sigma t},  D = (1 - e^{-d t})/d with d = m - sigma (t at d = 0),  sigma > 0

where U(x) = e^x x^{-q-1} Gamma(q+1, x), Tricomi's U(1, q+2, x), and
L(x) = e^x x^{-q-1} gamma(q+1, x), Kummer's M(1, q+2, x)/(q+1), from the
upper and the lower incomplete gamma function.  With u = m (1+s), the U
form subtracts the integral over (t, inf) from the one over (0, inf) and
the L form the integral over (-1, 0) from the one over (-1, t); the L
form serves while m (1+t) <= q + 2, up to just past the peak of h e^{-m s}
at m (1+s) = q, where the mass past t, and U(m) with it, can exceed the
float range by far more than D.  D(m, inf) is finite for m > 0, except
under exponential forcing with sigma >= m.

The power law is anchored at 1+t rather than t so that h stays positive
and continuous at t = 0 while keeping the t^q growth rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Forcing"]


def _tricomi(a: float, x):
    """U(1, a+1, x) = e^x x^{-a} Gamma(a, x) for a, x > 0, forming neither e^x nor Gamma(a).

    It is inf only where U itself lies beyond the float range.
    """
    from scipy.special import gammaincc, gammaln  # imported here: only power forcing needs them

    shape = np.shape(x)
    x = np.array(x, dtype=float, ndmin=1)
    out = np.empty_like(x)
    near = x <= a + 1.0
    # the regularized Q(a, x) does not underflow here; its scale is taken in the log domain
    with np.errstate(over="ignore"):
        out[near] = np.exp(x[near] - a * np.log(x[near]) + gammaln(a)) * gammaincc(a, x[near])
    # beyond a + 1, Legendre's continued fraction for U itself (modified Lentz; Numerical Recipes 6.2)
    b = x[~near] + 1.0 - a
    d = 1.0 / b
    c = np.full_like(b, np.inf)
    u = d.copy()
    done = np.zeros(b.shape, dtype=bool)  # an entry stops at its own convergence: its bits do not depend on x's others
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        u = np.where(done, u, u * (d * c))
        done |= np.abs(d * c - 1.0) <= np.finfo(float).eps
        if done.all():
            break
    out[~near] = u
    return out.reshape(shape)


def _kummer(a: float, x):
    """L(x) = M(1, a+1, x)/a = sum_n x^n / (a (a+1) ... (a+n)) for a > 0 and 0 < x <= a + 1.

    Every term is positive and the ratio of terms x/(a+n) falls below 1
    from n = 2 on, so each entry stops at its own convergence.
    """
    x = np.array(x, dtype=float, ndmin=1)
    term = np.full_like(x, 1.0 / a)
    out = term.copy()
    done = np.zeros(x.shape, dtype=bool)
    for n in range(1, 100000):
        term *= x / (a + n)
        done |= term <= np.finfo(float).eps * out
        out = np.where(done, out, out + term)
        if done.all():
            break
    return out


@dataclass(frozen=True)
class Forcing:
    """h(t) of one family of the module docstring; sigma is 0 but for exponential forcing."""

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

    def damped_integral(self, m: float, t):
        """D(m, t) of the module docstring for m > 0 and t >= 0, a scalar or an array; t = inf gives the total."""
        t = np.asarray(t, dtype=float)
        if self.kind == "one":
            return -np.expm1(-m * t) / m
        if self.kind == "power":
            a = self.q + 1.0
            finite = np.isfinite(t)
            s = np.where(finite, t, 0.0)  # the tail is 0 at t = inf, where its factors are 0 * inf
            x = m * (1.0 + s)
            low = finite & (x <= a + 1.0)
            up = ~low
            out = np.empty(t.shape)
            with np.errstate(over="ignore"):
                # e^{-m t} (1+t)^{q+1}; inf only where D itself lies beyond the float range
                grow = np.exp(a * np.log1p(s) - m * s)
                if low.any():  # then m <= m (1+t) <= q + 2, inside _kummer's range
                    out[low] = grow[low] * _kummer(a, x[low]) - _kummer(a, m)
                if up.any():
                    total = _tricomi(a, m)
                    tail = np.where(finite[up], grow[up] * _tricomi(a, x[up]), 0.0)
                    # U(m) = inf here only for m far below q, where D holds the peak and exceeds the range too
                    out[up] = total if np.isinf(total) else total - tail
            return out
        if self.kind == "exp":
            d = m - self.sigma
            if d == 0.0:
                return t * 1.0
            return -np.expm1(-d * t) / d
        raise ValueError(f"unknown forcing kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "one":
            return "h=1"
        if self.kind == "power":
            return f"h=(1+t)^{self.q:g}"
        return f"h=exp({self.sigma:g} t)"
