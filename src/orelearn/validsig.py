"""Signature-validity concepts: representation learning implies forgery.

A concept is indexed by a verification key and one anchor (message,
signature) pair valid under it; an example (vk', m', sig') is positive
exactly when vk' matches and sig' verifies.  Since evaluation ignores the
anchor, every positive triple represents the *same* function, so a
learner that returns any positive example's triple is already exact.  The
catch is that the triple itself is the representation: producing one that
was not in the sample amounts to winning a weak forgery game against the
signature scheme, which is how tracing soundness is argued.

The signature back-end is Ed25519 (deterministic signing and
verification), imported from ``cryptography`` on first use.  RFC 8032
verification rejects non-canonical scalars, so re-randomizing a signature
on a queried message does not yield a new verifying pair; that structural
strong-unforgeability check is exercised in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .core import mutate_ciphertext
from .strengthen import _ed25519

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

__all__ = [
    "Ed25519Scheme",
    "SigTriple",
    "ValidSigConcept",
    "validsig_learn",
    "validsig_gen_ex",
    "validsig_trace_ex",
    "ValidSigState",
    "run_weak_forgery_game",
    "SigExampleDistribution",
    "random_message",
    "representation_error",
]


class Ed25519Scheme:
    """Thin deterministic wrapper around Ed25519 signatures; the backend is
    imported on the first ``gen`` or ``ver`` (``strengthen._ed25519``)."""

    def gen(self, rng: np.random.Generator):
        seed = bytes(rng.bytes(32))
        private_key, _, _ = _ed25519()
        sk = private_key.from_private_bytes(seed)
        vk = sk.public_key().public_bytes_raw()
        return sk, vk

    def sign(self, sk: Ed25519PrivateKey, message: bytes) -> bytes:
        return sk.sign(message)

    def ver(self, vk: bytes, message: bytes, sig: bytes) -> bool:
        _, public_key, invalid_signature = _ed25519()
        try:
            public_key.from_public_bytes(vk).verify(sig, message)
            return True
        except (invalid_signature, ValueError):
            return False


class SigTriple(NamedTuple):
    vk: bytes
    message: bytes
    sig: bytes


def random_message(ell: int, rng: np.random.Generator) -> bytes:
    """A uniform ell-bit message, encoded in ceil(ell/8) bytes."""
    nbytes = (ell + 7) // 8
    raw = bytearray(rng.bytes(nbytes))
    extra = 8 * nbytes - ell
    if extra:
        raw[0] &= 0xFF >> extra
    return bytes(raw)


@dataclass(frozen=True)
class ValidSigConcept:
    """f(vk', m', sig') = 1 iff vk' matches and sig' verifies under vk."""

    sig_scheme: Ed25519Scheme
    vk: bytes
    anchor_message: bytes
    anchor_sig: bytes
    ell: int

    def evaluate(self, x: SigTriple) -> int:
        if x.vk != self.vk:
            return 0
        return 1 if self.sig_scheme.ver(self.vk, x.message, x.sig) else 0


def validsig_learn(samples: Sequence[tuple[SigTriple, int]]) -> "SigTriple | None":
    """Return the first positive example's triple; None is the all-zeroes
    representation."""
    for x, label in samples:
        if label == 1:
            return x
    return None


def representation_error(
    rep: "SigTriple | None", concept: ValidSigConcept, positive_mass: float
) -> float:
    """Exact generalization error of a learned representation.

    A triple with the right key represents the target function itself
    (evaluation ignores the anchor), so its error is zero; the all-zeroes
    representation errs exactly on the positive mass.  A wrong-key triple
    misses all positives and accepts nothing from this distribution.
    """
    if rep is not None and concept.evaluate(rep):
        return 0.0
    return positive_mass


# ---------------------------------------------------------------------------
# Example reidentification
# ---------------------------------------------------------------------------


@dataclass
class ValidSigState:
    concept: ValidSigConcept
    signing_key: Ed25519PrivateKey
    examples: list  # x_0 .. x_n, all drawn i.i.d. from the distribution

    @property
    def n(self) -> int:
        return len(self.examples) - 1

    @property
    def junk_example(self) -> SigTriple:
        """The spare x_0 that ``reident.sample_without`` puts in a dropped slot."""
        return self.examples[0]


def validsig_gen_ex(
    sig_scheme: Ed25519Scheme, n: int, ell: int, rng: np.random.Generator
) -> tuple[ValidSigState, list[tuple[SigTriple, int]]]:
    """Concept plus n+1 i.i.d. signed uniform messages (x_0 is the spare)."""
    if n < 1:
        raise ValueError("need n >= 1")
    sk, vk = sig_scheme.gen(rng)
    anchor_m = random_message(ell, rng)
    anchor_sig = sig_scheme.sign(sk, anchor_m)
    concept = ValidSigConcept(
        sig_scheme=sig_scheme,
        vk=vk,
        anchor_message=anchor_m,
        anchor_sig=anchor_sig,
        ell=ell,
    )
    messages = [random_message(ell, rng) for _ in range(n + 1)]
    xs = [SigTriple(vk, m, sig_scheme.sign(sk, m)) for m in messages]
    state = ValidSigState(concept=concept, signing_key=sk, examples=xs)
    sample = [(x, 1) for x in xs[1:]]
    return state, sample


def validsig_trace_ex(state: ValidSigState, rep: "SigTriple | None") -> "int | None":
    """Accuse the least sample index whose triple equals the representation
    byte-for-byte; None when the representation matches no sample element."""
    if rep is None:
        return None
    for i in range(1, state.n + 1):
        if state.examples[i] == rep:
            return i
    return None


# ---------------------------------------------------------------------------
# Weak forgery game
# ---------------------------------------------------------------------------


def run_weak_forgery_game(
    sig_scheme: Ed25519Scheme,
    learner,
    n: int,
    ell: int,
    rng: np.random.Generator,
) -> dict:
    """Wrap a representation learner as a weak forgery adversary.

    The adversary has n random messages signed, runs the learner on the
    resulting all-positive sample, and outputs the learned triple's
    (message, signature) as its forgery.  The game value is 1 iff the
    forgery verifies and is not a (message, signature) pair of the sample.
    """
    sk, vk = sig_scheme.gen(rng)
    messages = [random_message(ell, rng) for _ in range(n)]
    sample = [(SigTriple(vk, m, sig_scheme.sign(sk, m)), 1) for m in messages]
    rep = learner(sample)
    if rep is None:
        return {"value": 0, "forgery": None, "reason": "learner output bottom"}
    forgery = (rep.message, rep.sig)
    fresh = all(forgery != (x.message, x.sig) for x, _ in sample)
    valid = sig_scheme.ver(vk, rep.message, rep.sig)
    return {
        "value": int(valid and fresh),
        "forgery": forgery,
        "valid": valid,
        "fresh": fresh,
    }


# ---------------------------------------------------------------------------
# Distributions for learner experiments
# ---------------------------------------------------------------------------


class SigExampleDistribution:
    """Mixture of positives under the target key and two negative kinds.

    Negatives are split evenly between valid triples under a decoy key and
    corrupted signatures under the target key.
    """

    def __init__(
        self,
        state: ValidSigState,
        positive_weight: float,
        rng: np.random.Generator,
    ):
        if not (0.0 <= positive_weight <= 1.0):
            raise ValueError(f"positive_weight {positive_weight} outside [0, 1]")
        self.state = state
        self.positive_weight = positive_weight
        sig = state.concept.sig_scheme
        self._decoy_sk, self._decoy_vk = sig.gen(rng)

    def sample(self, rng: np.random.Generator) -> SigTriple:
        sig = self.state.concept.sig_scheme
        ell = self.state.concept.ell
        m = random_message(ell, rng)
        if rng.random() < self.positive_weight:
            return SigTriple(self.state.concept.vk, m, sig.sign(self.state.signing_key, m))
        if rng.random() < 0.5:
            return SigTriple(self._decoy_vk, m, sig.sign(self._decoy_sk, m))
        good = sig.sign(self.state.signing_key, m)
        return SigTriple(self.state.concept.vk, m, mutate_ciphertext(good, "bitflip", rng))

    def positive_mass(self) -> float:
        # corrupted signatures fail verification; decoy keys fail the match
        return self.positive_weight
