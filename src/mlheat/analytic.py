"""Closed-form Green's function of the constant-coefficient strip problem."""

import math
from dataclasses import dataclass

import numpy as np

from ._workspace import _local, _scratch
from .errors import ConfigError, number, positive
from .special_functions import _folded_kernels, _theta_orders


@dataclass(frozen=True)
class StripProblem:
    """Dirichlet strip [y0, yN] with constant diffusion and a Dirac source."""

    y0: float
    yN: float
    sigma: float
    x0: float
    T: float

    def __post_init__(self):
        for name, rule in (("y0", number), ("yN", number), ("sigma", positive), ("x0", number),
                           ("T", positive)):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if not self.y0 < self.x0 < self.yN:
            raise ConfigError(
                f"source x0={self.x0} must lie strictly inside ({self.y0}, {self.yN})"
            )


@_scratch
def strip_green(problem, x):
    """Green's function of the strip at time T.

    u(T, x) = (1/2) [K(sigma^2 T, x - x0, l) - K(sigma^2 T, x + x0 - 2 y0, l)]
    with l = yN - y0 and K the reflected heat kernel of ``folded_kernel``.
    Where ``folded_kernel`` would take the image sum (sigma^2 T < l^2 / pi)
    it does; otherwise the theta series is summed in product form,
    u = (2/l) sum_k q^(k^2) sin(k w (x0 - y0)) sin(k w (x - y0)),
    w = pi / l, q = exp(-w^2 sigma^2 T), whose terms do not cancel, so a
    decayed profile and the values near the walls keep full relative
    precision.  The image sum is one kernel pass over the direct and the
    image offsets stacked, which it reads and writes in the workspace.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x >= problem.y0) & (x <= problem.yN)):
        raise ConfigError("evaluation point outside the strip")
    l = problem.yN - problem.y0
    delta = problem.sigma ** 2 * problem.T
    if delta < l * l / math.pi:
        a, kernel = _local.ws.take_many(2, 2, *x.shape)
        np.subtract(x, problem.x0, a[0, ...])
        np.subtract(x + problem.x0, 2.0 * problem.y0, a[1, ...])
        direct, image = _folded_kernels(delta, a, l, (0,), [kernel])[0]
        u = 0.5 * (direct - image)
        return float(u) if u.ndim == 0 else u
    w = math.pi / l
    decay = w * w * delta
    k = _theta_orders(decay)
    weight = 2.0 / l * np.exp(-decay * k * k) * np.sin(k * w * (problem.x0 - problem.y0))
    return np.sin(np.multiply.outer(x - problem.y0, k * w)) @ weight
