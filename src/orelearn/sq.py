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
its threshold queries share the decryption under the recovered key, so
each support point is decrypted once per learner run.

The functional-equivalence claim of step 3 is executable via
``check_key_equivalence``, which sweeps all encryptions of the full
domain under both keys plus a fuzz corpus.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BOT, CheckReport, KeyMaterial, OreScheme, PublicParams, mutate_ciphertext
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
    "check_key_equivalence",
    "bit_of",
]


def tolerance_floor(k_bits: int, alpha: float) -> float:
    """Minimum admissible tolerance: 1 / (64 * k * ceil(1/alpha))."""
    return 1.0 / (64.0 * k_bits * math.ceil(1.0 / alpha))


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
    answers are exact expectations, optionally jittered by noise uniform
    in [-tau, tau] (clipped to [0, 1], which preserves the tau bound).
    The query counter increments once per query, and jitter mode draws
    once per query.  Each support point is labelled once, when the oracle
    is built, and ``error`` scores a hypothesis against those labels.
    The tolerance floor is ``tolerance_floor(k, alpha)`` with k the bit
    length of an instance: the params bytes plus the longest ciphertext in
    the support.

    A plain callable is called once per support point.  A ``ViewQuery``
    is answered by groups: the view of every support point is computed
    once per view function and kept on the oracle, ``test`` is called
    once per distinct view value, and the weights of the passing points
    are added in support order, the same additions as the per-point sum.
    That sum is memoized by (view, set of passing values) for the
    oracle's lifetime.
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
        self._answers: dict = {}  # (view function, passing values) -> weight sum

    def true_expectation(self, psi) -> float:
        if not isinstance(psi, ViewQuery):
            return sum(w for x, w, label in self._support if psi(x, label))
        views = self._views.get(psi.view)
        if views is None:
            values = [psi.view(x, label) for x, _, label in self._support]
            views = self._views[psi.view] = (values, tuple(dict.fromkeys(values)))
        values, distinct = views
        passing = frozenset(v for v in distinct if psi.test(v))
        key = (psi.view, passing)
        value = self._answers.get(key)
        if value is None:
            value = sum(w for (_, w, _), v in zip(self._support, values) if v in passing)
            self._answers[key] = value
        return value

    def error(self, hypothesis) -> float:
        """``distribution.exact_error(hypothesis, concept)`` bit for bit, scored
        in support order against the stored labels; not a query, so it
        neither counts nor draws."""
        return sum(w for x, w, label in self._support if hypothesis.evaluate(x) != label)

    def query(self, psi, tau: float) -> float:
        if tau < self.tau_floor:
            raise ValueError(
                f"tolerance {tau} below the floor {self.tau_floor}"
            )
        self.query_count += 1
        value = self.true_expectation(psi)
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

    sk = key_recovery.recover(params)
    params_data = params.data

    def decrypted(x, b):
        """The plaintext under the recovered key; BOT under foreign params."""
        return scheme.dec(sk, x.ct) if x.params.data == params_data else BOT

    # positive weight is at least alpha/4 > 0, so the threshold is at least 1
    lo, hi = 1, scheme.domain_size
    while lo < hi:
        t_mid = (lo + hi) // 2
        phi = ViewQuery(decrypted, lambda m, t=t_mid: m is not BOT and m < t)
        v1 = oracle.query(phi, alpha / 4.0)
        if abs(v1 - v) <= alpha / 2.0:
            return DecryptThresholdHypothesis(scheme, params, sk, t_mid)
        if v1 < v - alpha / 2.0:
            lo = t_mid + 1  # hypothesis too light: true threshold is higher
        else:
            hi = t_mid - 1
    return DecryptThresholdHypothesis(scheme, params, sk, lo)


# ---------------------------------------------------------------------------
# Functional equivalence of recovered keys
# ---------------------------------------------------------------------------


def check_key_equivalence(
    scheme: OreScheme,
    sk1,
    sk2,
    rng: np.random.Generator,
    fuzz_trials: int = 2000,
):
    """Sweep for ciphertexts on which the two keys decrypt differently.

    Covers every encryption of the full domain under both keys plus a
    fuzzed corpus (mutants and random bytes).  Exhaustive over the domain,
    so restricted to ell <= 12.
    """
    if scheme.ell > 12:
        raise ValueError("domain sweep restricted to ell <= 12")
    report = CheckReport()

    def compare_on(ct: bytes, origin: str):
        d1 = scheme.dec(sk1, ct)
        d2 = scheme.dec(sk2, ct)
        report.checked += 1
        if d1 is not d2 and d1 != d2:
            report.add_failure(
                {"origin": origin, "dec1": str(d1), "dec2": str(d2)},
                mutation_class=origin,
            )

    domain = range(scheme.domain_size)
    for c1, c2 in zip(scheme.enc_many(sk1, domain), scheme.enc_many(sk2, domain)):
        compare_on(c1, "enc-sk1")
        compare_on(c2, "enc-sk2")
    for _ in range(fuzz_trials):
        m = int(rng.integers(0, scheme.domain_size))
        kind = ("bitflip", "truncate", "random")[int(rng.integers(0, 3))]
        compare_on(mutate_ciphertext(scheme.enc(sk1, m), kind, rng), kind)
    return report
