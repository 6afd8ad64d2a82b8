"""Core order-revealing encryption (ORE) interface and correctness checkers.

An ORE scheme is a tuple of algorithms (gen, enc, dec, comp).  Keys are
generated from an explicit coin string so that key material is a pure
function of the coins.  Decryption may fail, returning the distinguished
value BOT; comparison may likewise return BOT when a participating
ciphertext fails validation.

Two reference comparators anchor the correctness notions:

* ``comp_plain`` compares plaintext integers directly.
* ``comp_ciph`` decrypts both ciphertexts with the secret key and compares
  the plaintexts, propagating BOT if either decryption fails.

A scheme has *weakly correct comparison* when the public ``comp`` agrees
with ``comp_plain`` on honestly generated ciphertexts, and *strongly
correct comparison* when ``comp`` agrees with ``comp_ciph`` on arbitrary
byte strings, including malformed ones.  The checker functions in this
module make both notions executable: they sweep message sets or fuzzed
ciphertext pairs and report every disagreement.

Ciphertext wire format: every ciphertext starts with a one-byte scheme
version tag followed by a one-byte plaintext bit length; the body is
scheme specific and parsers must tolerate arbitrary body bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BOT",
    "Bot",
    "Ordering3",
    "Message",
    "PublicParams",
    "KeyMaterial",
    "OreScheme",
    "comp_plain",
    "comp_ciph",
    "compare_ints",
    "CheckReport",
    "check_decryption_correctness",
    "check_weak_correctness",
    "check_strong_correctness",
    "FuzzPairSampler",
    "MUTATION_CLASSES",
    "mutate_ciphertext",
    "encode_blob",
    "decode_blob",
    "serialize_key",
    "deserialize_key",
]


class Bot:
    """The distinguished failure value (decryption or comparison refusal)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOT"

    def __bool__(self):
        return False


BOT = Bot()


class Ordering3(enum.Enum):
    """Three-way order relation between two plaintexts."""

    LT = "<"
    GT = ">"
    EQ = "="

    def __str__(self):
        return self.value

    def flipped(self) -> "Ordering3":
        if self is Ordering3.LT:
            return Ordering3.GT
        if self is Ordering3.GT:
            return Ordering3.LT
        return Ordering3.EQ


def compare_ints(m0: int, m1: int) -> Ordering3:
    if m0 < m1:
        return Ordering3.LT
    if m0 > m1:
        return Ordering3.GT
    return Ordering3.EQ


@dataclass(frozen=True)
class Message:
    """A plaintext: an integer in {0, ..., 2**ell - 1}."""

    value: int
    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"bit length must be >= 1, got {self.ell}")
        if not (0 <= self.value < (1 << self.ell)):
            raise ValueError(
                f"message {self.value} outside domain [0, 2**{self.ell})"
            )


def comp_plain(m0: Message, m1: Message) -> Ordering3:
    """Reference plaintext comparison; both messages must share a domain."""
    if m0.ell != m1.ell:
        raise ValueError(f"mismatched bit lengths: {m0.ell} != {m1.ell}")
    return compare_ints(m0.value, m1.value)


@dataclass(frozen=True)
class PublicParams:
    """Public comparison parameters: canonical identity bytes plus domain size.

    Equality and serialization go through ``data``; scheme-specific parameter
    objects subclass this and may carry extra non-identity attachments.
    """

    data: bytes
    ell: int

    def __eq__(self, other):
        return (
            isinstance(other, PublicParams)
            and self.data == other.data
            and self.ell == other.ell
        )

    def __hash__(self):
        return hash((self.data, self.ell))


@dataclass(frozen=True)
class KeyMaterial:
    """A generated key pair together with the coin string that produced it."""

    sk: object
    params: PublicParams
    coins: bytes


class OreScheme:
    """Interface for an ORE scheme over the domain {0, ..., 2**ell - 1}.

    Concrete schemes fix ell at construction and are immutable
    afterwards.  ``gen`` must be a deterministic function of the coin
    string, ``enc``/``dec``/``comp`` deterministic functions of their
    arguments.
    """

    name = "abstract"
    ell: int
    coin_len: int

    @property
    def domain_size(self) -> int:
        return 1 << self.ell

    def gen(self, rng: np.random.Generator) -> KeyMaterial:
        coins = bytes(rng.bytes(self.coin_len))
        return self.gen_from_coins(coins)

    def gen_from_coins(self, coins: bytes) -> KeyMaterial:
        raise NotImplementedError

    def enc(self, sk, m: int) -> bytes:
        raise NotImplementedError

    def enc_many(self, sk, ms: Sequence[int]) -> list[bytes]:
        """``[self.enc(sk, m) for m in ms]``; schemes may batch the work but
        must return the same bytes."""
        return [self.enc(sk, m) for m in ms]

    def dec(self, sk, ct: bytes) -> "int | Bot":
        raise NotImplementedError

    def comp(self, params: PublicParams, c0: bytes, c1: bytes) -> "Ordering3 | Bot":
        raise NotImplementedError

    def comp_many(self, params: PublicParams, cts: Sequence[bytes], c1: bytes) -> list:
        """``[self.comp(params, c0, c1) for c0 in cts]``: many ciphertexts
        against one; schemes may batch the work but must return the same."""
        return [self.comp(params, c0, c1) for c0 in cts]

    def params_len(self) -> int:
        """Byte length of ``params.data``, fixed for a given ell."""
        raise NotImplementedError

    def _check_message(self, m: int):
        if not (0 <= m < self.domain_size):
            raise ValueError(f"message {m} outside domain [0, 2**{self.ell})")


def comp_ciph(scheme: OreScheme, sk, c0: bytes, c1: bytes) -> "Ordering3 | Bot":
    """Secret-key reference comparison: decrypt both sides, then compare.

    Returns BOT as soon as either decryption fails.
    """
    m0 = scheme.dec(sk, c0)
    if m0 is BOT:
        return BOT
    m1 = scheme.dec(sk, c1)
    if m1 is BOT:
        return BOT
    return compare_ints(m0, m1)


# ---------------------------------------------------------------------------
# Executable correctness checkers
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of a correctness sweep: every disagreement, plus tallies."""

    checked: int = 0
    failures: list = field(default_factory=list)
    counts_by_class: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def add_failure(self, record, mutation_class: str = "default"):
        self.failures.append(record)
        self.counts_by_class[mutation_class] = (
            self.counts_by_class.get(mutation_class, 0) + 1
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: {len(self.failures)} failures / {self.checked} checks"


def check_decryption_correctness(
    scheme: OreScheme,
    message_set: Iterable[int],
    keys: int,
    rng: np.random.Generator,
) -> CheckReport:
    """Verify dec(enc(m)) == m for every message under ``keys`` fresh keys."""
    messages = list(message_set)
    report = CheckReport()
    for _ in range(keys):
        key = scheme.gen(rng)
        for m, ct in zip(messages, scheme.enc_many(key.sk, messages)):
            got = scheme.dec(key.sk, ct)
            report.checked += 1
            if got is BOT or got != m:
                report.add_failure({"m": m, "got": got, "coins": key.coins.hex()})
    return report


def check_weak_correctness(
    scheme: OreScheme,
    message_pairs: Iterable[tuple[int, int]],
    key: KeyMaterial,
) -> CheckReport:
    """Verify comp(enc(m0), enc(m1)) matches plaintext order on honest pairs."""
    pairs = list(message_pairs)
    ms = list(dict.fromkeys(m for pair in pairs for m in pair))
    ct_of = dict(zip(ms, scheme.enc_many(key.sk, ms)))
    report = CheckReport()
    for m0, m1 in pairs:
        got = scheme.comp(key.params, ct_of[m0], ct_of[m1])
        want = compare_ints(m0, m1)
        report.checked += 1
        if got is not want:
            report.add_failure({"m0": m0, "m1": m1, "got": got, "want": want})
    return report


MUTATION_CLASSES = ("valid", "bitflip", "truncate", "random")


def mutate_ciphertext(ct: bytes, kind: str, rng: np.random.Generator) -> bytes:
    """Apply one mutation class to ``ct``: "bitflip" flips one uniform bit,
    "truncate" keeps a uniform proper prefix, and "random" returns uniform
    bytes of a uniform length in [1, len(ct) + 16)."""
    if kind == "bitflip":
        pos = int(rng.integers(0, len(ct) * 8))
        b = bytearray(ct)
        b[pos // 8] ^= 1 << (pos % 8)
        return bytes(b)
    if kind == "truncate":
        return ct[: int(rng.integers(0, len(ct)))]
    if kind == "random":
        return bytes(rng.bytes(int(rng.integers(1, len(ct) + 16))))
    raise ValueError(f"unknown mutation class {kind!r}")


class FuzzPairSampler:
    """Samples ciphertexts from four mutation classes at fixed 0.25 weights.

    Classes: honest encryptions of uniform messages; single-bit-flipped
    encryptions; truncated encryptions; uniformly random byte strings of a
    plausible length.  The mix is fixed so fuzz coverage is reproducible.
    """

    def __init__(self, scheme: OreScheme, key: KeyMaterial):
        self.scheme = scheme
        self.key = key

    def sample(self, rng: np.random.Generator) -> tuple[bytes, str]:
        cls = MUTATION_CLASSES[int(rng.integers(0, 4))]
        m = int(rng.integers(0, self.scheme.domain_size))
        ct = self.scheme.enc(self.key.sk, m)
        if cls == "valid":
            return ct, cls
        return mutate_ciphertext(ct, cls, rng), cls


def check_strong_correctness(
    scheme: OreScheme,
    key: KeyMaterial,
    trials: int,
    rng: np.random.Generator,
    extra_pairs: Sequence[tuple[bytes, bytes]] = (),
) -> CheckReport:
    """Verify comp(params, c0, c1) == comp_ciph(sk, c0, c1) on fuzzed pairs.

    The pairs come from a ``FuzzPairSampler`` of the key.  The identity must
    hold exactly, including BOT agreement.  ``extra_pairs`` lets callers
    inject constructed witnesses (e.g. spliced tag/payload forgeries)
    alongside the sampled classes.
    """
    sampler = FuzzPairSampler(scheme, key)
    report = CheckReport()

    def check_pair(c0: bytes, c1: bytes, cls: str):
        pub = scheme.comp(key.params, c0, c1)
        ref = comp_ciph(scheme, key.sk, c0, c1)
        report.checked += 1
        if pub is not ref:
            report.add_failure(
                {"class": cls, "comp": str(pub), "comp_ciph": str(ref)},
                mutation_class=cls,
            )

    for c0, c1 in extra_pairs:
        check_pair(c0, c1, "witness")
    for _ in range(trials):
        c0, cls0 = sampler.sample(rng)
        c1, cls1 = sampler.sample(rng)
        check_pair(c0, c1, f"{cls0}+{cls1}")
    return report


# ---------------------------------------------------------------------------
# Length-prefixed binary serialization helpers
# ---------------------------------------------------------------------------


def encode_blob(*fields: bytes) -> bytes:
    """Concatenate byte fields, each prefixed with a 4-byte big-endian length."""
    out = bytearray()
    for f in fields:
        out += len(f).to_bytes(4, "big")
        out += f
    return bytes(out)


def serialize_key(key: KeyMaterial) -> bytes:
    """Length-prefixed binary form of generated key material.

    Keys are pure functions of their coins, so the coins plus the params
    identity are a complete, canonical encoding.
    """
    return encode_blob(key.coins, key.params.data, bytes([key.params.ell]))


def deserialize_key(scheme: OreScheme, blob: bytes) -> KeyMaterial:
    """Regenerate key material from its serialized coins; validates params."""
    fields = decode_blob(blob, 3)
    if fields is None:
        raise ValueError("malformed key blob")
    coins, params_data, ell_byte = fields
    key = scheme.gen_from_coins(coins)
    if key.params.data != params_data or key.params.ell != ell_byte[0]:
        raise ValueError("key blob does not match this scheme's generation")
    return key


def decode_blob(data: bytes, count: int) -> "list[bytes] | None":
    """Inverse of encode_blob; None if the buffer does not parse exactly."""
    fields = []
    pos = 0
    for _ in range(count):
        if pos + 4 > len(data):
            return None
        n = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        if pos + n > len(data):
            return None
        fields.append(data[pos : pos + n])
        pos += n
    if pos != len(data):
        return None
    return fields
