"""Executable indistinguishability games for ORE schemes.

Two challenge shapes are supported.  In the *static* game the adversary
submits two strictly ascending message sequences of equal length and must
tell which one was encrypted.  In the *single-challenge* game it submits
one ascending sequence plus a pair of challenge messages sandwiched
strictly between two consecutive sequence elements, and must tell which
challenge message was encrypted.  The two notions are equivalent up to a
polynomial loss through a hybrid schedule of 2q+1 intermediate vectors,
each adjacent pair differing in at most one position; ``hybrid_schedule``
materializes that schedule so its combinatorial properties can be tested.

The runners estimate the adversary's advantage |Pr[guess=1 | b=0] -
Pr[guess=1 | b=1]| over seeded trials with a normal-approximation 95%
confidence interval.  Negligible-advantage claims are mapped to fixed
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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import OreScheme, PublicParams
from .encthresh import Example
from .reident import draw_buckets
from .strengthen import EscrowCertifier, StrengthenedOre, StrongParams

__all__ = [
    "ChallengePair",
    "SingleChallenge",
    "GameTranscript",
    "GameReport",
    "run_static_game",
    "run_single_challenge_game",
    "hybrid_schedule",
    "adversary_success_prob",
    "ReductionAdversary",
    "synthetic_reduction_win_rate",
    "RandomGuessAdversary",
    "PayloadBitAdversary",
    "EscrowKeyLeakAdversary",
]


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
        for side, name in ((self.left, "left"), (self.right, "right")):
            for m in side:
                if not (0 <= m < domain_size):
                    raise ValueError(f"{name} message {m} outside domain")
            if any(a >= b for a, b in zip(side, side[1:])):
                raise ValueError(f"{name} sequence not strictly ascending")

    @property
    def q(self) -> int:
        return len(self.left)


@dataclass(frozen=True)
class SingleChallenge:
    """Ascending base sequence plus a sandwiched challenge message pair."""

    messages: tuple
    m_left: int
    m_right: int

    def validate(self, domain_size: int):
        ms = self.messages
        if len(ms) < 2:
            raise ValueError("single-challenge game needs q >= 2 base messages")
        for m in (*ms, self.m_left, self.m_right):
            if not (0 <= m < domain_size):
                raise ValueError(f"message {m} outside domain")
        if any(a >= b for a, b in zip(ms, ms[1:])):
            raise ValueError("base sequence not strictly ascending")
        if not (self.m_left < self.m_right):
            raise ValueError("challenge messages must satisfy m_left < m_right")
        # the pair must sit strictly between two consecutive base messages;
        # challenges hanging off either end are rejected rather than guessed at
        ok = any(
            ms[i] < self.m_left and self.m_right < ms[i + 1]
            for i in range(len(ms) - 1)
        )
        if not ok:
            raise ValueError("challenge pair is not sandwiched between base messages")


@dataclass
class GameTranscript:
    trial: int
    bit: int
    guess: int
    win: bool
    flags: dict = field(default_factory=dict)


@dataclass
class GameReport:
    game: str
    trials: int
    p_guess1_given_b0: float
    p_guess1_given_b1: float
    advantage: float
    ci_halfwidth: float
    flag_counts: dict = field(default_factory=dict)
    transcripts: "list[GameTranscript] | None" = None

    @property
    def ci_lo(self) -> float:
        return self.advantage - self.ci_halfwidth

    @property
    def ci_hi(self) -> float:
        return self.advantage + self.ci_halfwidth


def _play(game, scheme, adversary, trials, rng, keep_transcripts, encrypt) -> GameReport:
    """The trial loop shared by both games.

    Per trial: the adversary picks a challenge, then the bit and the key are
    drawn and ``encrypt(sk, challenge, bit)`` gives the ciphertext arguments
    that ``adversary.guess`` receives between the params and the rng.
    """
    guesses = {0: [], 1: []}
    transcripts = [] if keep_transcripts else None
    flag_counts: dict = {}
    for trial in range(trials):
        challenge = adversary.choose_challenge(rng)
        challenge.validate(scheme.domain_size)
        bit = int(rng.integers(0, 2))
        key = scheme.gen(rng)
        guess = int(adversary.guess(key.params, *encrypt(key.sk, challenge, bit), rng))
        guesses[bit].append(guess)
        flags = dict(getattr(adversary, "transcript_flags", {}) or {})
        for k, v in flags.items():
            if v:
                flag_counts[k] = flag_counts.get(k, 0) + 1
        if keep_transcripts:
            transcripts.append(
                GameTranscript(trial, bit, guess, guess == bit, flags)
            )
    n0, n1 = len(guesses[0]), len(guesses[1])
    p0 = sum(guesses[0]) / n0 if n0 else 0.0
    p1 = sum(guesses[1]) / n1 if n1 else 0.0
    var = 0.0
    if n0:
        var += p0 * (1 - p0) / n0
    if n1:
        var += p1 * (1 - p1) / n1
    half = max(1.96 * var**0.5, 10.0 / max(trials, 1))
    return GameReport(
        game=game,
        trials=trials,
        p_guess1_given_b0=p0,
        p_guess1_given_b1=p1,
        advantage=abs(p0 - p1),
        ci_halfwidth=half,
        flag_counts=flag_counts,
        transcripts=transcripts,
    )


def run_static_game(
    scheme: OreScheme,
    adversary,
    trials: int,
    rng: np.random.Generator,
    keep_transcripts: bool = False,
) -> GameReport:
    """Static (many-message) indistinguishability experiment."""

    def encrypt(sk, challenge: ChallengePair, bit: int):
        side = challenge.left if bit == 0 else challenge.right
        return (scheme.enc_many(sk, side),)

    return _play("static", scheme, adversary, trials, rng, keep_transcripts, encrypt)


def run_single_challenge_game(
    scheme: OreScheme,
    adversary,
    trials: int,
    rng: np.random.Generator,
    keep_transcripts: bool = False,
) -> GameReport:
    """Single-challenge indistinguishability experiment."""

    def encrypt(sk, challenge: SingleChallenge, bit: int):
        m = challenge.m_left if bit == 0 else challenge.m_right
        *cts, ct = scheme.enc_many(sk, [*challenge.messages, m])
        return cts, ct

    return _play(
        "single-challenge", scheme, adversary, trials, rng, keep_transcripts, encrypt
    )


# ---------------------------------------------------------------------------
# Hybrid schedule
# ---------------------------------------------------------------------------


def hybrid_schedule(pair: ChallengePair) -> list[tuple]:
    """The 2q+1 interpolating message vectors between left and right.

    Hybrid 0 is the left vector and hybrid 2q the right; every hybrid is
    ascending and adjacent hybrids differ in at most one position, so each
    step is covered by single-challenge security.
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
        idx = int(np.nonzero(order == self.j_star - 1)[0][0])
        degenerate = not well_spaced
        if not degenerate:
            lo0, hi0 = int(bounds[idx]), int(bounds[idx + 1])  # bucket below
            lo1, hi1 = int(bounds[idx + 1]), int(bounds[idx + 2])  # bucket above
            j = int(rng.integers(0, 2))
            blo, bhi = (lo0, hi0) if j == 0 else (lo1, hi1)
            a, b = rng.integers(blo + 1, bhi, size=2)
            m_l0, m_l1 = int(min(a, b)), int(max(a, b))
            m_r0 = int(rng.integers(lo0 + 1, hi0))
            m_r1 = int(rng.integers(lo1 + 1, hi1))
            if m_l0 == m_l1:
                degenerate = True
        if degenerate:
            # keep the game well-defined: identical sides, random guess later
            filler = tuple(range(n + 2))
            self._trial = {"degenerate": True}
            self.transcript_flags = {"degenerate": True, "not_well_spaced": not well_spaced}
            return ChallengePair(left=filler, right=filler)
        prefix = bounds[: idx + 1].tolist()  # 0 and the sorted draws below the target
        suffix = bounds[idx + 2 : -1].tolist()
        left = tuple(prefix + [m_l0, m_l1] + suffix)
        right = tuple(prefix + [m_r0, m_r1] + suffix)
        self._trial = {
            "degenerate": False,
            "raw": raw,
            "order": order,
            "idx": idx,
        }
        self.transcript_flags = {"degenerate": False, "not_well_spaced": False}
        return ChallengePair(left=left, right=right)

    def guess(self, params: PublicParams, cts: Sequence[bytes], rng) -> int:
        trial = self._trial
        self._trial = None
        if trial is None or trial["degenerate"]:
            return int(rng.integers(0, 2))
        raw, order, idx = trial["raw"], trial["order"], trial["idx"]
        n, t = self.n, self.scheme.domain_size // 2
        inv = np.empty(n, dtype=np.int64)
        inv[order] = np.arange(n)
        sample = []
        for j0 in range(n):
            if j0 == self.j_star - 1:
                sample.append((Example(params, cts[0]), 1))  # junk slot, label 1
                continue
            k = int(inv[j0])
            ct_index = 1 + k if k < idx else 2 + k
            label = 1 if int(raw[j0]) < t else 0
            sample.append((Example(params, cts[ct_index]), label))
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
    bits = rng.integers(0, 2, size=trials)
    u0, u1 = rng.random(trials), rng.random(trials)
    same_bucket_rate = np.where(rng.integers(0, 2, size=trials) == 0, p, q)
    rate0 = np.where(bits == 0, same_bucket_rate, p)
    rate1 = np.where(bits == 0, same_bucket_rate, q)
    y0 = u0 < rate0
    y1 = u1 < rate1
    guesses = (y0 != y1).astype(int)
    return float(np.mean(guesses == bits))


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
