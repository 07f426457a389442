"""Accumulation kernels for the Monte Carlo drivers.

Each kernel fuses an elementwise transform with numpy sums of the values
and their squares over one shard.  A shard's sums depend only on its
draws, so the per-shard reductions, and the shard-order reduce built on
them in ``mc``, are bit-identical across runs and thread counts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "beta_route_sums",
    "diff_sums",
    "excess_sums",
    "excess_upper_sums",
    "loss_sums",
    "moment_sums",
    "rect_count",
]


def loss_sums(xbar1, xbar2, phi, mu):
    # returns (sum sq, sum sq^2, sum err); err^2 == sq so the bias second
    # moment is already the first component
    err = xbar1 + (xbar2 - xbar1) * phi - mu
    sq = err * err
    return float(np.sum(sq)), float(np.sum(sq * sq)), float(np.sum(err))


def moment_sums(values):
    return float(np.sum(values)), float(np.sum(values * values))


def diff_sums(phi0, phi1, theta_prime):
    e0 = phi0 - theta_prime
    e1 = phi1 - theta_prime
    v = e0 * e0 - e1 * e1
    return float(np.sum(v)), float(np.sum(v * v))


def excess_sums(t1, t2, beta, coef):
    # coef * 4 beta^2 (t1-t2)^2 / ((t1+t2)^2 (t1+t2+4 beta))
    tot = t1 + t2
    diff = t1 - t2
    v = coef * 4.0 * beta * beta * diff * diff / (tot * tot * (tot + 4.0 * beta))
    return float(np.sum(v)), float(np.sum(v * v))


def excess_upper_sums(t1, t2, beta, coef):
    # coef * 4 beta^2 / (t1+t2+4 beta): the (t1-t2)^2 <= (t1+t2)^2 relaxation
    v = coef * 4.0 * beta * beta / (t1 + t2 + 4.0 * beta)
    return float(np.sum(v)), float(np.sum(v * v))


def beta_route_sums(u1, u2, two_beta_coef):
    # two_beta_coef * u1 u2 / (u1 + u2)
    v = two_beta_coef * u1 * u2 / (u1 + u2)
    return float(np.sum(v)), float(np.sum(v * v))


def rect_count(x, y, a1, b1, a2, b2):
    inside = (a1 <= x) & (x <= b1) & (a2 <= y) & (y <= b2)
    return int(np.count_nonzero(inside))
