"""Exact laws of harness trials, for tests with power against the harness.

A law here is computed from first principles, not from ``vsakit``: it is
what a trial's failure probability must be if the encoder, the estimator
and every draw are right. A test runs the harness at a few cells whose
failure rate lies between 1% and 50% and checks each failure count against
its law with a two-sided binomial test at a level fixed in advance.

MAP-I ``norm``: with a scaled dense-sign codebook, the estimate of a 0/1
set of n symbols is Q / m, Q = sum_i Y_i^2 over the m rows, and the rows
are independent with Y_i = 2B - n, B ~ Bin(n, 1/2). So Q's law is the
m-fold convolution of the law of one row's Y_i^2, on 0..m n^2, and a trial
fails when Q / m is farther than eps * n from n.
"""

import math

import numpy as np


def mapi_norm_q_law(m: int, n: int) -> np.ndarray:
    """P(Q = q) for q = 0..m n^2, Q the sum of m independent (2B - n)^2, B ~ Bin(n, 1/2)."""
    row = np.zeros(n * n + 1)
    for b in range(n + 1):
        row[(2 * b - n) ** 2] += math.comb(n, b) / 2.0**n
    law = np.ones(1)
    for _ in range(m):
        law = np.convolve(law, row)
    return law


def mapi_norm_fail(m: int, n: int, eps: float) -> float:
    """Exact probability that a MAP-I ``norm`` trial fails at (m, n, eps).

    A trial passes when ``abs(Q / m - n) <= eps * n`` in floats, as
    ``harness._within`` decides it; the pass set is the integers q for
    which that holds, found by the same arithmetic.
    """
    law = mapi_norm_q_law(m, n)
    passes = np.array([abs(q / m - n) <= eps * n for q in range(len(law))])
    return float(law[~passes].sum())


def binomial_two_sided_p(k: int, trials: int, p: float) -> float:
    """Two-sided p-value of k successes in ``trials`` Bin(trials, p) draws.

    The probability of every count no likelier than k, as the exact
    binomial test defines it.
    """
    log_pmf = [math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
               + j * math.log(p) + (trials - j) * math.log1p(-p) for j in range(trials + 1)]
    pmf = np.exp(log_pmf)
    return float(min(1.0, pmf[pmf <= pmf[k] * (1 + 1e-7)].sum()))  # 1e-7: ties in rounding
