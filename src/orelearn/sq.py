"""Statistical-query oracle and the query-light learner for encrypted thresholds.

A statistical query is a binary predicate over (example, label) together
with a tolerance tau; the oracle answers with any value within tau of the
predicate's true expectation under the labeled example distribution.  The
oracle here computes true expectations exactly over enumerable (finite
support) distributions and either returns them as-is (exact mode) or
perturbs them by uniform noise bounded by tau (jitter mode).  Tolerances
below an inverse-polynomial floor are rejected.

The learner needs only 1 + |params bits| + ell queries:

1. one query on the label bit decides whether the all-zeroes hypothesis
   is already good;
2. one query per bit of the public parameters recovers them, since all
   positive mass lives on the target's parameter string;
3. a secret key matching the recovered parameters is obtained from a key
   recovery back-end (a registry oracle standing in for brute-force
   search, or genuine exhaustive search over a tiny coin space), any such
   key being functionally equivalent to the generating one for a strongly
   correct scheme;
4. at most ell threshold queries binary-search the threshold, halting as
   soon as the hypothesis's positive weight matches the target's within
   alpha/2, or when the candidate interval collapses to a single point.

A query may carry a view: ``ViewQuery(view, test)`` is the predicate
``psi(x, b) == test(view(x, b))``.  The oracle computes each support
point's view once, calls ``test`` once per distinct view value and adds
the weights of the passing points in support order, so the answer equals
the per-point sum bit for bit.  The learner's label and parameter-bit
queries share one view, (params bytes, label), with two distinct values;
its threshold queries share one view, the ``decrypt`` of the hypothesis
it returns, so each support point is decrypted once per learner run, and
the oracle scores that hypothesis from the same values.
"""

from __future__ import annotations

import math

import numpy as np

from .core import KeyMaterial, OreScheme, PublicParams
from .encthresh import (
    AllZeroesHypothesis,
    DecryptThresholdHypothesis,
    EncThreshConcept,
)

__all__ = [
    "StatOracle",
    "ViewQuery",
    "tolerance_floor",
    "OracleKeyRecovery",
    "TinyKeyspaceRecovery",
    "KeyRecoveryError",
    "sq_learn",
    "bit_of",
]


def tolerance_floor(k_bits: int, alpha: float) -> float:
    """Minimum admissible tolerance: 1 / (64 * k * ceil(1/alpha)).

    Raises OverflowError where the denominator is not a finite float, rather
    than return a floor of 0.0 that admits every tolerance."""
    denominator = 64.0 * k_bits * math.ceil(1.0 / alpha)
    if math.isinf(denominator):
        raise OverflowError(f"64 * k * ceil(1/alpha) overflows a float at k={k_bits}, alpha={alpha!r}")
    return 1.0 / denominator


class ViewQuery:
    """The statistical query ``psi(x, b) == test(view(x, b))``.

    ``view`` maps a labeled example to a hashable value and ``test`` maps
    a view value to a verdict.  ``StatOracle`` groups the support by view
    value, so ``test`` must give equal verdicts on equal values; a view
    function must be pure for as long as the oracle lives, since the
    oracle keeps its values.
    """

    __slots__ = ("view", "test")

    def __init__(self, view, test):
        self.view = view
        self.test = test

    def __call__(self, x, b) -> bool:
        return self.test(self.view(x, b))


class StatOracle:
    """Answers statistical queries about a labeled example distribution.

    The distribution must expose ``support() -> [(Example, weight)]``;
    ``query(psi, tau)`` answers the exact expectation of ``psi(x, label)``
    over the support, optionally jittered by noise uniform in [-tau, tau]
    (clipped to [0, 1], which preserves the tau bound).
    The query counter increments once per query, and jitter mode draws
    once per query.  Each support point is labelled once, when the oracle
    is built, and ``error`` scores a hypothesis against those labels:
    from a kept view's values when the hypothesis is a threshold
    hypothesis whose ``decrypt`` was a query's view, else per point.
    The tolerance floor is ``tolerance_floor(k, alpha)`` with k the bit
    length of an instance: the params bytes plus the longest ciphertext in
    the support.

    A plain callable is called once per support point.  A ``ViewQuery``
    is answered by groups: the view of every support point is computed
    once per view function and kept on the oracle, ``test`` is called
    once per distinct view value, and the weights of the passing points
    are added in support order, the same additions as the per-point sum.
    That sum is memoized by (view, verdicts on the distinct values in
    first-seen order) for the oracle's lifetime.
    """

    def __init__(
        self,
        concept: EncThreshConcept,
        distribution,
        alpha: float,
        mode: str = "exact",
        rng: "np.random.Generator | None" = None,
    ):
        if mode not in ("exact", "jitter"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        if mode == "jitter" and rng is None:
            raise ValueError("jitter mode needs an rng")
        self.mode = mode
        self.rng = rng
        self._support = [
            (x, w, concept.evaluate(x)) for x, w in distribution.support()
        ]
        max_ct = max(len(x.ct) for x, _, _ in self._support)
        k_bits = 8 * (concept.scheme.params_len() + max_ct)
        self.tau_floor = tolerance_floor(k_bits, alpha)
        self.query_count = 0
        self._views: dict = {}  # view function -> (value per support point, distinct values)
        self._answers: dict = {}  # (view function, verdict per distinct value) -> weight sum

    def error(self, hypothesis) -> float:
        """``distribution.exact_error(hypothesis, concept)`` bit for bit, scored
        in support order against the stored labels; not a query, so it
        neither counts nor draws.  A threshold hypothesis whose ``decrypt``
        is a view this oracle has answered is scored from that view's
        values, so its points are not decrypted again."""
        views = None
        if isinstance(hypothesis, DecryptThresholdHypothesis):
            views = self._views.get(hypothesis.decrypt)
        if views is None:
            return sum(w for x, w, label in self._support if hypothesis.evaluate(x) != label)
        values, distinct = views
        verdicts = {v: hypothesis.accepts(v) for v in distinct}
        return sum(w for (_, w, label), v in zip(self._support, values) if verdicts[v] != label)

    def query(self, psi, tau: float) -> float:
        if tau < self.tau_floor:
            raise ValueError(
                f"tolerance {tau} below the floor {self.tau_floor}"
            )
        self.query_count += 1
        if not isinstance(psi, ViewQuery):
            value = sum(w for x, w, label in self._support if psi(x, label))
        else:
            views = self._views.get(psi.view)
            if views is None:
                values = [psi.view(x, label) for x, _, label in self._support]
                views = self._views[psi.view] = (values, tuple(dict.fromkeys(values)))
            values, distinct = views
            key = (psi.view, tuple(map(psi.test, distinct)))
            value = self._answers.get(key)
            if value is None:
                passing = {v for v, verdict in zip(distinct, key[1]) if verdict}
                value = sum(w for (_, w, _), v in zip(self._support, values) if v in passing)
                self._answers[key] = value
        if self.mode == "jitter":
            value = min(1.0, max(0.0, value + float(self.rng.uniform(-tau, tau))))
        return value


# ---------------------------------------------------------------------------
# Key recovery back-ends
# ---------------------------------------------------------------------------


class KeyRecoveryError(LookupError):
    pass


class OracleKeyRecovery:
    """Registry of generated keys, standing in for brute-force search.

    Any key whose parameters match is admissible: for a strongly correct
    scheme all keys sharing a parameter string decrypt identically.
    """

    def __init__(self):
        self._by_params: dict[bytes, object] = {}

    def register(self, key: KeyMaterial):
        self._by_params[key.params.data] = key.sk

    def recover(self, params: PublicParams):
        sk = self._by_params.get(params.data)
        if sk is None:
            raise KeyRecoveryError("no registered key matches the parameters")
        return sk


class TinyKeyspaceRecovery:
    """Genuine exhaustive search over a small coin space.

    Only usable when the scheme draws its generation coins from at most
    16 bits; every coin string is replayed through gen until the public
    parameters match.
    """

    def __init__(self, scheme: OreScheme):
        if scheme.coin_len > 2:
            raise ValueError(
                f"coin space 2**{8 * scheme.coin_len} too large for exhaustive search"
            )
        self.scheme = scheme
        self.searched = 0

    def recover(self, params: PublicParams):
        n_coins = 1 << (8 * self.scheme.coin_len)
        for c in range(n_coins):
            coins = c.to_bytes(self.scheme.coin_len, "big")
            key = self.scheme.gen_from_coins(coins)
            self.searched += 1
            if key.params.data == params.data:
                return key.sk
        raise KeyRecoveryError("exhausted the coin space without a match")


# ---------------------------------------------------------------------------
# The learner
# ---------------------------------------------------------------------------


def bit_of(data: bytes, i: int) -> int:
    """Bit i of a byte string, most significant bit of each byte first."""
    return (data[i >> 3] >> (7 - (i & 7))) & 1


def _params_and_label(x, b) -> tuple:
    """The view shared by the learner's label and parameter-bit queries."""
    return x.params.data, b


def sq_learn(
    oracle: StatOracle,
    alpha: float,
    key_recovery,
    scheme: OreScheme,
):
    """Recover parameters bit-by-bit, a matching key, and the threshold.

    Returns the all-zeroes hypothesis when the first query reports label
    weight below alpha/2; otherwise a decrypt-and-threshold hypothesis.
    Total queries are at most 1 + 8*params_len + ell.
    """
    v = oracle.query(ViewQuery(_params_and_label, lambda pb: pb[1] == 1), alpha / 4.0)
    if v < alpha / 2.0:
        return AllZeroesHypothesis()

    data = bytearray(scheme.params_len())
    for i in range(8 * len(data)):
        answer = oracle.query(
            ViewQuery(_params_and_label, lambda pb, i=i: pb[1] == 1 and bit_of(pb[0], i) == 1),
            alpha / 16.0,
        )
        # positive mass all lies on the target parameters, so the answer is
        # either ~0 or at least ~alpha/4 minus the tolerance
        if answer > alpha / 8.0:
            data[i >> 3] |= 1 << (7 - (i & 7))
    params = PublicParams(data=bytes(data), ell=scheme.ell)

    # one hypothesis, its threshold moved by the search: its ``decrypt`` is
    # the view of every threshold query and ``accepts`` their test, so the
    # oracle can score the returned hypothesis from the kept view values
    h = DecryptThresholdHypothesis(scheme, params, key_recovery.recover(params), 0)
    # positive weight is at least alpha/4 > 0, so the threshold is at least 1
    lo, hi = 1, scheme.domain_size
    while lo < hi:
        h.t = (lo + hi) // 2
        v1 = oracle.query(ViewQuery(h.decrypt, h.accepts), alpha / 4.0)
        if abs(v1 - v) <= alpha / 2.0:
            return h
        if v1 < v - alpha / 2.0:
            lo = h.t + 1  # hypothesis too light: true threshold is higher
        else:
            hi = h.t - 1
    h.t = lo
    return h
