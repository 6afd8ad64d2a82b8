"""Core order-revealing encryption (ORE) interface and the weak and strong
correctness checkers.

An ORE scheme is a tuple of algorithms (gen, enc, dec, comp).  Keys are
generated from an explicit coin string so that key material is a pure
function of the coins.  Decryption may fail, returning the distinguished
value BOT; comparison may likewise return BOT when a participating
ciphertext fails validation.

Two reference comparators anchor the correctness notions:

* ``compare_ints`` compares plaintext integers directly.
* ``comp_ciph`` decrypts both ciphertexts with the secret key and compares
  the plaintexts, propagating BOT if either decryption fails.

A scheme has *weakly correct comparison* when the public ``comp`` agrees
with ``compare_ints`` on honestly generated ciphertexts, and *strongly
correct comparison* when ``comp`` agrees with ``comp_ciph`` on arbitrary
byte strings, including malformed ones.  ``check_weak_correctness`` and
``check_strong_correctness`` make both notions executable: they sweep honest
message pairs or fuzzed ciphertext pairs and report every disagreement.

Ciphertext wire format: every ciphertext starts with a one-byte scheme
version tag followed by a one-byte plaintext bit length; the body is
scheme specific and parsers must tolerate arbitrary body bytes.

``_tally_shared`` is the one place that shares independent work across
CPUs with ``os.fork``: the bucket estimator's buckets, the harness
runners' trials and the correctness checkers' pairs.  ``_rate`` is the one
rate-over-trials rule of the harness runners and the games.
"""

from __future__ import annotations

import contextlib
import enum
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BOT",
    "Bot",
    "Ordering3",
    "PublicParams",
    "KeyMaterial",
    "OreScheme",
    "comp_ciph",
    "compare_ints",
    "CheckReport",
    "check_weak_correctness",
    "check_strong_correctness",
    "FuzzPairSampler",
    "MUTATION_CLASSES",
    "mutate_ciphertext",
    "encode_blob",
    "decode_blob",
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


def compare_ints(m0: int, m1: int) -> Ordering3:
    """Reference plaintext comparison of two integers."""
    if m0 < m1:
        return Ordering3.LT
    if m0 > m1:
        return Ordering3.GT
    return Ordering3.EQ


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
    arguments.  Every honest ciphertext has one byte length, whatever the
    message and, like the params, whatever the key: ``FuzzPairSampler``
    draws its mutations for that length before it encrypts, and
    ``ciphertext_len`` reads it off the key of all-zero coins.
    """

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
        """Byte length of ``params.data``, read off the key of all-zero coins."""
        return len(self.gen_from_coins(bytes(self.coin_len)).params.data)

    def ciphertext_len(self) -> int:
        """The one byte length of honest ciphertexts, read off the encryption
        of 0 under the key of all-zero coins."""
        return len(self.enc(self.gen_from_coins(bytes(self.coin_len)).sk, 0))

    def _check_message(self, m: int):
        if not isinstance(m, int):
            raise TypeError(f"message must be an int, got {type(m).__name__}")
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


def check_weak_correctness(
    scheme: OreScheme,
    message_pairs: Iterable[tuple[int, int]],
    key: KeyMaterial,
) -> CheckReport:
    """Verify comp(enc(m0), enc(m1)) matches plaintext order on honest pairs.

    The pairs are shared across CPUs; each process encrypts the distinct
    messages of its own pairs.  The report lists failures in pair order.
    """
    pairs = list(message_pairs)

    def tally(share):
        ms = list(dict.fromkeys(m for i in share for m in pairs[i]))
        ct_of = dict(zip(ms, scheme.enc_many(key.sk, ms)))
        found = {}
        for i in share:
            m0, m1 = pairs[i]
            got = scheme.comp(key.params, ct_of[m0], ct_of[m1])
            want = compare_ints(m0, m1)
            found[i] = None if got is want else ({"m0": m0, "m1": m1, "got": got, "want": want},)
        return found

    return _shared_report(tally, len(pairs))


MUTATION_CLASSES = ("valid", "bitflip", "truncate", "random")


def mutate_ciphertext(ct: bytes, kind: str, rng: np.random.Generator) -> bytes:
    """Apply one mutation class to ``ct``: "bitflip" flips one uniform bit,
    "truncate" keeps a uniform proper prefix, and "random" returns uniform
    bytes of a uniform length in [1, len(ct) + 16).  An empty ``ct`` comes
    back unchanged from "bitflip" and "truncate", with no draw.

    The mutation is drawn for ``len(ct)`` first, then applied, so a caller
    that knows the length can make the draw before the ciphertext exists."""
    return _apply_mutation(ct, kind, _draw_mutation(len(ct), kind, rng))


def _draw_mutation(length: int, kind: str, rng: np.random.Generator):
    """Every draw of one ``kind`` mutation of a ``length``-byte ciphertext:
    the bit position ("bitflip"), the prefix length ("truncate") or the
    bytes themselves ("random"); None, with no draw, for "bitflip" and
    "truncate" when ``length`` is 0."""
    if kind == "bitflip":
        return int(rng.integers(0, length * 8)) if length else None
    if kind == "truncate":
        return int(rng.integers(0, length)) if length else None
    if kind == "random":
        return bytes(rng.bytes(int(rng.integers(1, length + 16))))
    raise ValueError(f"unknown mutation class {kind!r}")


def _apply_mutation(ct: bytes, kind: str, draw) -> bytes:
    """``ct`` under the mutation that ``_draw_mutation`` drew for its
    length; ``ct`` itself when there is no draw.  Draws nothing."""
    if draw is None:
        return ct
    if kind == "bitflip":
        b = bytearray(ct)
        b[draw // 8] ^= 1 << (draw % 8)
        return bytes(b)
    if kind == "truncate":
        return ct[:draw]
    return draw


class FuzzPairSampler:
    """Fuzz ciphertexts of one key from four mutation classes at fixed 0.25 weights.

    Classes: honest encryptions of uniform messages; single-bit-flipped
    encryptions; truncated encryptions; uniformly random byte strings of a
    plausible length.  The mix is fixed so fuzz coverage is reproducible.

    ``sample`` makes every rng draw of one fuzz ciphertext (class, message,
    mutation), the mutation drawn for ``length``: the key's one honest
    ciphertext length (``OreScheme``), read off the encryption of 0, which
    draws nothing.  ``build`` makes the bytes and draws nothing, so it can
    run in any process; an encryption of another length raises there.
    """

    def __init__(self, scheme: OreScheme, key: KeyMaterial):
        self.scheme = scheme
        self.key = key
        self.length = len(scheme.enc(key.sk, 0))

    def sample(self, rng: np.random.Generator) -> tuple[str, int, object]:
        """(class, message, mutation draw) of one fuzz ciphertext; the draw
        is None for the "valid" class."""
        cls = MUTATION_CLASSES[int(rng.integers(0, 4))]
        m = int(rng.integers(0, self.scheme.domain_size))
        return cls, m, None if cls == "valid" else _draw_mutation(self.length, cls, rng)

    def build(self, samples: Sequence[tuple[str, int, object]]) -> list[bytes]:
        """The fuzz ciphertexts of ``samples``, in order.  The distinct
        messages of the samples that are not "random" are encrypted with
        ``enc_many``, and each is mutated by its sample's draw; a "random"
        sample is the bytes it drew, so it needs no encryption."""
        ms = list(dict.fromkeys(m for cls, m, _ in samples if cls != "random"))
        ct_of = dict(zip(ms, self.scheme.enc_many(self.key.sk, ms)))
        for m, ct in ct_of.items():
            if len(ct) != self.length:
                raise ValueError(
                    f"the encryption of {m} is {len(ct)} bytes, but the key's encryption "
                    f"of 0 is {self.length}: a scheme's honest ciphertexts must have one length"
                )
        return [
            draw if cls == "random" else _apply_mutation(ct_of[m], cls, draw)
            for cls, m, draw in samples
        ]


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
    alongside the sampled classes; they are checked first.  Every sample
    is drawn here, c0's then c1's, pair by pair, so the rng is left where
    a serial loop leaves it.  The pairs are shared across CPUs: each
    process builds the fuzz ciphertexts of its own pairs and checks them,
    and the report lists failures in pair order.
    """
    sampler = FuzzPairSampler(scheme, key)
    extra = list(extra_pairs)
    drawn = [(sampler.sample(rng), sampler.sample(rng)) for _ in range(trials)]

    def tally(share):
        mine = [i - len(extra) for i in share if i >= len(extra)]
        built = iter(sampler.build([s for j in mine for s in drawn[j]]))
        found = {}
        for i in share:
            if i < len(extra):
                (c0, c1), cls = extra[i], "witness"
            else:
                (cls0, _, _), (cls1, _, _) = drawn[i - len(extra)]
                c0, c1, cls = next(built), next(built), f"{cls0}+{cls1}"
            pub = scheme.comp(key.params, c0, c1)
            ref = comp_ciph(scheme, key.sk, c0, c1)
            found[i] = None if pub is ref else (
                {"class": cls, "comp": str(pub), "comp_ciph": str(ref)}, cls
            )
        return found

    return _shared_report(tally, len(extra) + trials)


def _shared_report(tally, count: int) -> CheckReport:
    """The report of a sweep over pairs 0 .. count - 1, shared across CPUs by
    ``_tally_shared``: ``tally(share)`` maps each of its pair indices to None
    (agreement) or the ``add_failure`` arguments, merged here in pair order."""
    found = _tally_shared(tally, list(range(count)))
    report = CheckReport(checked=count)
    for i in range(count):
        if found[i] is not None:
            report.add_failure(*found[i])
    return report


def _rate(rows: list, pred) -> float:
    """Share of rows satisfying pred; nan when there are no rows."""
    return sum(pred(r) for r in rows) / len(rows) if rows else float("nan")


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


# ---------------------------------------------------------------------------
# Independent work shared across CPUs
# ---------------------------------------------------------------------------


def _cpus() -> int:
    """How many processes may share the work: the CPUs this process may run
    on, or 1 where the platform has no ``fork`` or affinity mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _tally_shared(tally, items: list) -> dict:
    """``tally(share)`` for P round-robin shares of ``items``, merged.

    P is the smaller of ``_cpus()`` and ``len(items)``, and 1 while another
    Python thread is alive (it could hold a lock a child needs; native
    threads such as numpy's BLAS pool do not count); no floor on the work.
    The first share, ``items[0::P]``, runs here and each later one in a
    child made with ``os.fork``, which pickles its dict down a pipe.  No
    items means one empty share here.  A child that raised has its
    exception re-raised here; if anything here raises first, the children
    still running are killed.  Either way every child is reaped before this
    returns or raises.
    """
    workers = max(1, min(_cpus(), len(items)))
    if threading.active_count() > 1:
        workers = 1
    shares = [items[j::workers] for j in range(workers)]
    children = []  # (pid, read end of its report pipe), not yet reaped
    try:
        for share in shares[1:]:
            children.append(_fork_tally(tally, share))
        merged = tally(shares[0])
        while children:
            pid, pipe = children[-1]
            blob = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop()  # only once reaped, so the cleanup never waits on it again
            pipe.close()
            if not blob:
                raise RuntimeError(
                    f"forked child {pid} ended without a report "
                    f"(wait status {status:#x}, exit code {os.waitstatus_to_exitcode(status)})"
                )
            ok, payload = pickle.loads(blob)
            if not ok:
                raise payload
            merged.update(payload)
        return merged
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_tally(tally, share: list):
    """Fork a child that runs ``tally(share)`` and pickles ``(True, result)``
    or ``(False, exception)`` down a pipe; return (pid, the pipe's read end).

    The child always leaves by ``os._exit``, so it never flushes inherited
    stdio buffers, runs atexit hooks or returns into the caller's frames.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                report = (True, tally(share))
            except BaseException as exc:
                report = (False, exc)
            try:
                blob = pickle.dumps(report)
                pickle.loads(blob)  # some exceptions pickle but cannot be rebuilt
            except Exception:
                blob = pickle.dumps((False, RuntimeError(f"forked child raised {report[1]!r}")))
            with open(write_fd, "wb") as pipe:
                pipe.write(blob)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
