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

MAP-B ``member`` and ``kv-member``: the bundle signs the sum of n
independent uniform +-1 columns (atomic columns, or bound pairs with
distinct keys), with a fair coin at a zero sum. Its coordinates are
independent, so a stored query agrees with it on A ~ Bin(m, p(n)) of them,
p(n) the agreement of one coordinate, and scores 2A - m. Every other query
(an absent symbol, or a key bound to a shifted value) is a column
independent of the bundle, and scores 2B - m with B ~ Bin(m, 1/2). A query
is wrong when its score and the threshold disagree with its truth, so
E[wrong] = n P(2A - m < tau) + q P(2B - m >= tau).
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


def binomial_pmf(m: int, p: float) -> np.ndarray:
    """P(K = k) for k = 0..m, K ~ Bin(m, p), from log-gamma terms."""
    if p in (0.0, 1.0):  # one sure count, which the logs cannot give
        return (np.arange(m + 1) == round(p * m)).astype(float)
    k = np.arange(m + 1)
    log_comb = np.array([math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
                         for j in range(m + 1)])
    return np.exp(log_comb + k * math.log(p) + (m - k) * math.log1p(-p))


def mapb_agreement(n: int) -> float:
    """P(x_i c_i = +1) for one of the n columns c bundled into x = sign(sum), ties to a coin.

    Given c_i = +1, the sum at i is 1 + 2K - (n - 1), with K ~ Bin(n - 1, 1/2)
    the +1 entries among the other n - 1 columns: x_i agrees when the sum is
    positive, and with probability 1/2 when it is zero.
    """
    agree = 0.0
    for k in range(n):
        total = 1 + 2 * k - (n - 1)
        agree += math.comb(n - 1, k) * (1.0 if total > 0 else 0.5 if total == 0 else 0.0)
    return agree / 2.0 ** (n - 1)


def mapb_wrong_law(task: str, m: int, n: int, d: int, delta: float) -> tuple[float, float]:
    """E[wrong] of a MAP-B ``member`` or ``kv-member`` trial, and an upper bound on its sd.

    The threshold is the closed form: sqrt(2 m ln(2 d / delta)) for ``member``,
    2 sqrt(m ln(d / delta)) for ``kv-member``. ``member`` queries q = d - n
    absent symbols, ``kv-member`` each of the q = n keys with a shifted value.
    A query is decided as the harness decides it, ``score >= tau`` in
    floats. The sd bound adds the n missed members' standard deviations, as
    if they moved together; an absent symbol's column is independent of the
    bundle and of every other column, so for ``member`` their variances add.
    The shifted pairs are each independent of the bundle but may share a
    value, so for ``kv-member`` their standard deviations add to the bound.
    """
    if task == "member":
        tau, q = math.sqrt(2.0 * m * math.log(2.0 * d / delta)), d - n
    else:
        tau, q = 2.0 * math.sqrt(m * math.log(d / delta)), n
    score = 2 * np.arange(m + 1) - m
    miss = float(binomial_pmf(m, mapb_agreement(n))[score < tau].sum())
    alarm = float(binomial_pmf(m, 0.5)[score >= tau].sum())
    moved = n * math.sqrt(miss * (1 - miss))
    if task == "member":
        var = moved**2 + q * alarm * (1 - alarm)
    else:
        var = (moved + q * math.sqrt(alarm * (1 - alarm))) ** 2
    return n * miss + q * alarm, math.sqrt(var)
