"""Closed forms the benchmark checks mlheat's outputs against.

They are written here, independently of mlheat, so that a change to the
library's own reference functions (``strip_green``, the theta series)
cannot hide an error in the results compared with them.
"""

import math

import numpy as np

# the sine series is summed until its terms fall below exp(-_DECAY)
_DECAY = 40.0


def _modes(l, sigma, T):
    nmax = int(math.ceil(l / math.pi * math.sqrt(_DECAY / (sigma * sigma * T)))) + 2
    return np.arange(1, nmax + 1) * (math.pi / l)


def strip_green(y0, yN, sigma, x0, T, xs):
    """Green's function of the Dirichlet strip [y0, yN] by its sine series.

    u(T, x) = (2/l) sum_n exp(-sigma^2 k_n^2 T) sin(k_n (x0 - y0)) sin(k_n (x - y0)),
    k_n = n pi / l.
    """
    l = yN - y0
    k = _modes(l, sigma, T)
    w = np.exp(-(sigma * sigma * T) * k * k) * np.sin(k * (x0 - y0))
    return (2.0 / l) * (np.sin(np.outer(np.asarray(xs, dtype=float) - y0, k)) @ w)


def strip_green_end_slopes(y0, yN, sigma, x0, T):
    """du/dx of ``strip_green`` at the two ends y0 and yN."""
    l = yN - y0
    k = _modes(l, sigma, T)
    w = np.exp(-(sigma * sigma * T) * k * k) * np.sin(k * (x0 - y0)) * k
    return (2.0 / l) * float(np.sum(w)), (2.0 / l) * float(np.sum(w * np.cos(k * l)))


def caloric(c, x, t):
    """u = c0 + c1 x + c2 (x^2 + 2t) + c3 (x^3 + 6xt), a solution of u_t = u_xx."""
    x = np.asarray(x, dtype=float)
    return c[0] + c[1] * x + c[2] * (x * x + 2.0 * t) + c[3] * (x ** 3 + 6.0 * x * t)


def caloric_dx(c, x, t):
    """du/dx of ``caloric``."""
    return c[1] + 2.0 * c[2] * x + c[3] * (3.0 * x * x + 6.0 * t)


def rel_err(values, exact):
    """max |values - exact| / max |exact| (the criterion-1 measure)."""
    values = np.asarray(values, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(values - exact)) / np.max(np.abs(exact)))


def dupire_columns(r, q, v, K, t):
    """tau, x and multiplier of the Dupire chart with constant r, q and v."""
    mu = r - q
    if abs(mu) < 1e-12:
        tau = 0.5 * v * t
    else:
        tau = 0.5 * v * -np.expm1(-2.0 * mu * t) / (2.0 * mu)
    return tau, K * np.exp(-mu * t), np.exp(-q * t)


def bk_columns(kappa, theta, sigma, s, a, b, S, z, R, t):
    """tau and zero-coupon-bond value F of the affine BK chart, constant data.

    psi(t) = exp(kappa (t - S)) gives tau = sigma^2 (1 - psi^2) / (4 kappa);
    B(t) = (b / kappa)(psi - 1) and log A integrates B and B^2 in closed form.
    """
    d = t - S
    e1 = np.expm1(kappa * d)
    e2 = np.expm1(2.0 * kappa * d)
    tau = -sigma * sigma * e2 / (4.0 * kappa)
    B = (b / kappa) * e1
    int_b = (b / kappa) * (e1 / kappa - d)
    int_b2 = (b / kappa) ** 2 * (e2 / (2.0 * kappa) - 2.0 * e1 / kappa + d)
    log_a = (a + s) * d - theta * kappa * int_b - 0.5 * sigma * sigma * int_b2
    return tau, np.exp(log_a + B * R * math.exp(z))


def verhulst_columns(kappa, theta, sigma, i, N, L, horizon, t):
    """tau and nu of the Verhulst chart for layer i, constant data and barrier."""
    g = kappa * (theta + 0.5 * sigma * sigma) - sigma * sigma
    c = (i + 0.5) ** 2 / (N * N * L * L)
    nu = c * np.exp(2.0 * g * t)
    if abs(g) < 1e-12:
        tau = 0.5 * sigma * sigma * c * (horizon - t)
    else:
        tau = 0.5 * sigma * sigma * c * (np.exp(2.0 * g * horizon) - np.exp(2.0 * g * t)) / (2.0 * g)
    return tau, nu


def divergent_columns(a, c1, c2, z):
    """x(z) and sigma^2(z) for Xi(x) = exp(-a x / 2): z = c2 + (c1/a)(e^{a x} - 1)."""
    x = np.log1p(a * (z - c2) / c1) / a
    return x, c1 * c1 * np.exp(a * x)
