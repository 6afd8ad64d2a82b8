"""Executable indistinguishability games for ORE schemes.

In the *static* game the adversary submits two strictly ascending message
sequences of equal length and must tell which one was encrypted.
``hybrid_schedule`` materializes the 2q+1 intermediate vectors that link
the two sides, each adjacent pair differing in at most one position, so
its combinatorial properties can be tested; its docstring states the
single-challenge notion that the schedule reduces the static one to.

``run_static_game`` estimates the adversary's advantage
|Pr[guess=1 | b=0] - Pr[guess=1 | b=1]| over seeded trials with a
normal-approximation 95% confidence interval.  Negligible-advantage claims are mapped to fixed
smoke thresholds, not proofs.

``ReductionAdversary`` implements the reduction that turns any
learner violating tracing soundness into a static-game adversary: it
plants two challenge encryptions drawn either from one or from two
adjacent plaintext buckets around the dropped example, feeds the learner
a sample with that example replaced by a junk encryption of 0, and guesses
"same bucket" exactly when the learned hypothesis agrees on the two
challenge ciphertexts.  Its success probability given per-bucket
acceptance rates (p, q) is 1/2 + (p-q)^2/2, computed by
``adversary_success_prob``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import OreScheme, PublicParams, _rate
from .encthresh import Example
from .reident import draw_buckets
from .strengthen import EscrowCertifier, StrengthenedOre, StrongParams

__all__ = [
    "ChallengePair",
    "GameReport",
    "run_static_game",
    "hybrid_schedule",
    "adversary_success_prob",
    "ReductionAdversary",
    "synthetic_reduction_win_rate",
    "RandomGuessAdversary",
    "PayloadBitAdversary",
    "EscrowKeyLeakAdversary",
]


def _check_ascending(ms: Sequence[int], domain_size: int, name: str):
    """Raise unless every message lies in the domain and ``ms`` strictly ascends."""
    for m in ms:
        if not (0 <= m < domain_size):
            raise ValueError(f"{name} message {m} outside domain")
    if any(a >= b for a, b in zip(ms, ms[1:])):
        raise ValueError(f"{name} sequence not strictly ascending")


@dataclass(frozen=True)
class ChallengePair:
    """Left/right message sequences for the static game."""

    left: tuple
    right: tuple

    def validate(self, domain_size: int):
        if len(self.left) != len(self.right):
            raise ValueError("challenge sides must have equal length")
        if not self.left:
            raise ValueError("challenge must contain at least one message")
        _check_ascending(self.left, domain_size, "left")
        _check_ascending(self.right, domain_size, "right")

    @property
    def q(self) -> int:
        return len(self.left)


@dataclass
class GameReport:
    p_guess1_given_b0: float
    p_guess1_given_b1: float
    advantage: float
    ci_halfwidth: float
    flag_counts: dict = field(default_factory=dict)
    transcripts: "list[dict] | None" = None  # trial, bit, guess, win, then the flags


def run_static_game(
    scheme: OreScheme,
    adversary,
    trials: int,
    rng: np.random.Generator,
    keep_transcripts: bool = False,
) -> GameReport:
    """Static (many-message) indistinguishability experiment.

    Per trial: the adversary picks a challenge, then the bit and the key are
    drawn, the side the bit names is encrypted, and ``adversary.guess``
    receives the params, the ciphertexts and the rng.  The report is
    computed from one record per trial: (bit, guess, a copy of the
    adversary's ``transcript_flags``).
    """
    records = []
    for _ in range(trials):
        challenge = adversary.choose_challenge(rng)
        challenge.validate(scheme.domain_size)
        bit = int(rng.integers(0, 2))
        key = scheme.gen(rng)
        side = challenge.left if bit == 0 else challenge.right
        guess = int(adversary.guess(key.params, scheme.enc_many(key.sk, side), rng))
        records.append((bit, guess, dict(getattr(adversary, "transcript_flags", None) or {})))
    by_bit = [[g for b, g, _ in records if b == bit] for bit in (0, 1)]
    # a bit that was never drawn has no rate, so neither has the advantage
    p0, p1 = (_rate(guesses, lambda g: g) for guesses in by_bit)
    var = 0.0
    for guesses, p in zip(by_bit, (p0, p1)):
        if guesses:
            var += p * (1 - p) / len(guesses)
    half = max(1.96 * var**0.5, 10.0 / max(trials, 1))
    return GameReport(
        p_guess1_given_b0=p0,
        p_guess1_given_b1=p1,
        advantage=abs(p0 - p1),
        ci_halfwidth=half,
        flag_counts=dict(Counter(k for *_, flags in records for k, v in flags.items() if v)),
        transcripts=[
            dict(trial=trial, bit=bit, guess=guess, win=guess == bit, **flags)
            for trial, (bit, guess, flags) in enumerate(records)
        ]
        if keep_transcripts
        else None,
    )


# ---------------------------------------------------------------------------
# Hybrid schedule
# ---------------------------------------------------------------------------


def hybrid_schedule(pair: ChallengePair) -> list[tuple]:
    """The 2q+1 interpolating message vectors between left and right.

    Hybrid 0 is the left vector and hybrid 2q the right; every hybrid is
    ascending and adjacent hybrids differ in at most one position, so each
    step is covered by single-challenge security.  In the single-challenge
    game the adversary submits one ascending sequence plus a pair of
    messages sandwiched strictly between two consecutive elements, and must
    tell which of the two was encrypted; through this schedule the static
    notion follows from it with a polynomial loss.
    """
    left, right = pair.left, pair.right
    q = len(left)
    hybrids = []
    for j in range(2 * q + 1):
        if j <= q:
            vec = tuple(
                min(left[i], right[i]) if i < j else left[i] for i in range(q)
            )
        else:
            cut = 2 * q - j
            vec = tuple(
                min(left[i], right[i]) if i < cut else right[i] for i in range(q)
            )
        hybrids.append(vec)
    return hybrids


# ---------------------------------------------------------------------------
# Reduction from a soundness-violating learner
# ---------------------------------------------------------------------------


def adversary_success_prob(p: float, q: float) -> float:
    """Success probability of the reduction's guessing rule.

    p and q are the hypothesis's acceptance rates on the two adjacent
    buckets.  Averaging the agree/disagree cases over the challenge bit
    gives 1/2 * (1/2*(p^2 + (1-p)^2 + q^2 + (1-q)^2) + (1 - p*q -
    (1-p)*(1-q))), which simplifies to 1/2 + (p-q)^2/2.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p and q must be probabilities")
    agree_same = 0.5 * (p * p + (1 - p) ** 2 + q * q + (1 - q) ** 2)
    disagree_cross = 1.0 - p * q - (1 - p) * (1 - q)
    return 0.5 * (agree_same + disagree_cross)


class ReductionAdversary:
    """Static-game adversary wrapping a learner (steps 1-5 of the reduction).

    Per trial: draw n uniform messages with ``draw_buckets``, as ``gen_ex``
    does, and label them by the middle threshold t = N/2; locate the sorted
    position of the target raw index; draw the left challenge pair from one
    random adjacent bucket and the right pair across both buckets; hand the
    learner the sample with the target replaced by a junk encryption of 0
    labeled 1; guess "left" iff the hypothesis agrees on the two challenge
    ciphertexts.  Draws that are not well-spaced (or that collide inside a
    bucket) flag the trial and fall back to a random guess.
    """

    def __init__(self, scheme: OreScheme, learner, n: int, j_star: int):
        if not (1 <= j_star <= n):
            raise ValueError("j_star must be a sample index in [1, n]")
        self.scheme = scheme
        self.learner = learner
        self.n = n
        self.j_star = j_star
        self._trial = None
        self.transcript_flags = {}

    def choose_challenge(self, rng: np.random.Generator) -> ChallengePair:
        n = self.n
        raw, order, bounds, well_spaced = draw_buckets(self.scheme.domain_size, n, rng)
        idx = order.index(self.j_star - 1)
        degenerate = not well_spaced
        if not degenerate:
            lo0, hi0 = bounds[idx], bounds[idx + 1]  # bucket below
            lo1, hi1 = bounds[idx + 1], bounds[idx + 2]  # bucket above
            j = int(rng.integers(0, 2))
            blo, bhi = (lo0, hi0) if j == 0 else (lo1, hi1)
            m_l0, m_l1 = sorted(rng.integers(blo + 1, bhi, size=2).tolist())
            m_r0 = int(rng.integers(lo0 + 1, hi0))
            m_r1 = int(rng.integers(lo1 + 1, hi1))
            if m_l0 == m_l1:
                degenerate = True
        self.transcript_flags = {"degenerate": degenerate, "not_well_spaced": not well_spaced}
        if degenerate:
            # keep the game well-defined: identical sides, random guess later
            filler = tuple(range(n + 2))
            self._trial = None
            return ChallengePair(left=filler, right=filler)
        prefix = bounds[: idx + 1]  # 0 and the sorted draws below the target
        suffix = bounds[idx + 2 : -1]
        left = tuple(prefix + [m_l0, m_l1] + suffix)
        right = tuple(prefix + [m_r0, m_r1] + suffix)
        self._trial = (raw, idx, prefix + suffix)
        return ChallengePair(left=left, right=right)

    def guess(self, params: PublicParams, cts: Sequence[bytes], rng) -> int:
        trial = self._trial
        self._trial = None
        if trial is None:  # degenerate, or no challenge was chosen
            return int(rng.integers(0, 2))
        raw, idx, shared = trial
        # both sides encrypt the shared messages (0 and every draw but the
        # target's) at every position outside the two challenge slots
        ct_of = dict(zip(shared, [*cts[: idx + 1], *cts[idx + 3 :]]))
        messages = list(raw)
        messages[self.j_star - 1] = 0  # the junk slot: the encryption of 0, labeled 1
        t = self.scheme.domain_size // 2
        sample = [(Example(params, ct_of[m]), 1 if m < t else 0) for m in messages]
        hypothesis = self.learner(sample)
        y0 = hypothesis.evaluate(Example(params, cts[idx + 1]))
        y1 = hypothesis.evaluate(Example(params, cts[idx + 2]))
        return 0 if y0 == y1 else 1


def synthetic_reduction_win_rate(
    p: float, q: float, trials: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo win rate of the reduction's guessing rule at fixed (p, q).

    Simulates exactly the variables the guess depends on: the challenge
    bit, the bucket choice on the left challenge, and the per-ciphertext
    Bernoulli responses of a hypothesis with acceptance rates p and q on
    the two buckets.  Ciphertext contents never enter the decision, so
    this equals the full game's win rate with such a hypothesis.  With no
    trials there is no rate: the result is nan.
    """
    if trials == 0:
        return float("nan")
    bits = rng.integers(0, 2, size=trials).tolist()
    u0, u1 = rng.random(trials).tolist(), rng.random(trials).tolist()
    buckets = rng.integers(0, 2, size=trials).tolist()
    wins = 0
    for bit, v0, v1, bucket in zip(bits, u0, u1, buckets):
        same_bucket_rate = p if bucket == 0 else q
        y0 = v0 < (same_bucket_rate if bit == 0 else p)
        y1 = v1 < (same_bucket_rate if bit == 0 else q)
        wins += (y0 != y1) == bit
    return wins / trials


# ---------------------------------------------------------------------------
# Stock adversaries for smoke tests and negative controls
# ---------------------------------------------------------------------------


class RandomGuessAdversary:
    """Baseline: identical challenge sides (0, 1, 2, 3), uniformly random guess."""

    def choose_challenge(self, rng) -> ChallengePair:
        side = (0, 1, 2, 3)
        return ChallengePair(left=side, right=side)

    def guess(self, params, cts, rng) -> int:
        return int(rng.integers(0, 2))


class PayloadBitAdversary:
    """Guesses from a parity of ciphertext payload bytes, ignoring order tags.

    Against a scheme whose payloads are keyed-hash masked this has no
    signal, so its advantage is a negative smoke check on payload leakage.
    """

    def __init__(self, pair: ChallengePair):
        self.pair = pair

    def choose_challenge(self, rng) -> ChallengePair:
        return self.pair

    def guess(self, params, cts, rng) -> int:
        acc = 0
        for ct in cts:
            for byte in ct[max(0, len(ct) - 24) :]:
                acc ^= byte
        return bin(acc).count("1") & 1


class EscrowKeyLeakAdversary:
    """Negative control: reads the base key from leaked escrow parameters.

    The escrow verification key serializes as b"escrow:" + key bytes; a
    distinguishing adversary that decrypts the first ciphertext should win
    almost always, which validates that the game harness detects breaks.
    """

    def __init__(self, base_scheme, pair: ChallengePair):
        if pair.left[0] == pair.right[0]:
            raise ValueError("challenge sides must differ in the first message")
        self.base_scheme = base_scheme
        self.strong_scheme = StrengthenedOre(base_scheme, EscrowCertifier())
        self.pair = pair

    def choose_challenge(self, rng) -> ChallengePair:
        return self.pair

    def guess(self, params, cts, rng) -> int:
        if not (isinstance(params, StrongParams) and params.cert_vk.kind == "escrow"):
            raise ValueError("the leak channel needs escrow-strengthened params")
        blob = params.cert_vk.serialize()
        sk = self.base_scheme.key_from_bytes(blob[len(b"escrow:") :])
        parsed = self.strong_scheme.parse(cts[0])
        if parsed is None:
            return int(rng.integers(0, 2))
        m = self.base_scheme.dec(sk, parsed[0])
        return 0 if m == self.pair.left[0] else 1
