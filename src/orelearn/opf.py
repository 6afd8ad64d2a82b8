"""A weakly correct ORE instantiation built from a keyed order-preserving tag.

Ciphertexts carry a pseudorandom order tag that is strictly increasing in
the plaintext under a fixed key, followed by an authenticated payload that
lets decryption recover the plaintext and reject tampered bytes.  The
public comparison reads *only* the tag, so it never refuses: honest
ciphertexts always compare in plaintext order (weak correctness), while a
spliced (tag, payload) pair compares by its tag even though decryption
rejects it.  That deliberate gap is the motivating counterexample for the
strengthening transformation in :mod:`orelearn.strengthen`.

Tag construction (binary descent): the tag interval starts as
[0, 2**(3*ell)), held as its low end tlo and width w.  At depth
d = 0, ..., ell - 1 the message m sits at the node (d, m >> (ell - d)), whose
keyed value is f = ``OpfSecretKey.split_fraction(d, m >> (ell - d))``.  With
q = w // 4 and left = q + f % (w - 2*q), the left child is [tlo, tlo + left)
and the right child [tlo + left, tlo + w); bit ell - 1 - d of m picks the
child, and the tag is tlo at the leaf.  Each split lies in the middle half
of its interval, so every child keeps at least a quarter of its parent:
2**(3*ell) / 4**ell = 2**ell, all 2**ell leaf intervals are nonempty and
the tag is strictly monotone.

Ciphertext body layout (bit exact)::

    version=0x01 | ell (1 byte) | tag (ceil(3*ell/8) bytes, big endian)
                 | masked plaintext (8 bytes) | auth tag (16 bytes)

The payload mask is a keyed hash of the order tag; the 128-bit auth tag is
a keyed hash over (tag || masked) so any modified byte fails verification
except with probability 2**-128.  Encryption is deterministic: the
strengthening transformation requires a unique ciphertext per (sk, m).

Each key carries two bounded memos of pure functions of the key: order
tags by message (filled by ``tag_many``, at most ``TAG_MEMO_MAX`` + 1
entries) and plaintexts by ciphertext (m or BOT, filled by ``dec`` alone,
at most ``PLAIN_MEMO_MAX`` + 1 entries).  Encryption never fills the
plaintext memo, so the first ``dec`` of every ciphertext, honest or not,
runs the full check.  Every bytes-like ciphertext is read as its bytes.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left

from .core import BOT, KeyMaterial, Ordering3, OreScheme, PublicParams, compare_ints

__all__ = [
    "OpfOre",
    "OpfSecretKey",
    "forge_spliced_ciphertext",
    "OPF_VERSION",
    "TAG_MEMO_MAX",
    "PLAIN_MEMO_MAX",
]

OPF_VERSION = 0x01
TAG_MEMO_MAX = 1 << 18  # a key's tag memo is cleared once it holds more entries
PLAIN_MEMO_MAX = 4096  # a key's plaintext memo is cleared once it holds more entries
_MASKED_LEN = 8
_AUTH_LEN = 16


class OpfSecretKey:
    """Key material for the tag/payload construction.

    Holds three independent keyed-hash keys (tag descent, payload mask,
    payload auth) derived from the master key bytes, plus two bounded memos:
    full order tags by message (``_tags``, filled by ``OpfOre.tag_many``)
    and ``OpfOre.dec``'s answers by ciphertext bytes (``_plains``, m or
    BOT, filled only by ``dec``).  Each caches a pure function of the key,
    so behaviour stays deterministic, and each dies with its key.
    """

    __slots__ = ("key", "ell", "_h_tag", "_h_mask", "_h_auth", "_tags", "_plains", "__weakref__")

    def __init__(self, key: bytes, ell: int):
        self.key = key
        self.ell = ell
        self._h_tag = hashlib.blake2b(key + b"\x01", digest_size=16)
        self._h_mask = hashlib.blake2b(key + b"\x02", digest_size=_MASKED_LEN)
        self._h_auth = hashlib.blake2b(key + b"\x03", digest_size=_AUTH_LEN)
        self._tags: dict[int, int] = {}
        self._plains: dict[bytes, object] = {}

    def split_fraction(self, depth: int, prefix: int) -> int:
        """Pseudorandom 128-bit value of the descent node (depth, prefix).

        The reference definition of a node's value: ``OpfOre.tag_many``
        hashes the same bytes inline and does not call this method.
        """
        h = self._h_tag.copy()
        h.update(((depth << 64) | prefix).to_bytes(9, "big"))  # depth byte, 8-byte prefix
        return int.from_bytes(h.digest(), "big")

    def mask(self, tag_bytes: bytes) -> int:
        h = self._h_mask.copy()
        h.update(tag_bytes)
        return int.from_bytes(h.digest(), "big")

    def auth(self, tag_bytes: bytes, masked: bytes) -> bytes:
        h = self._h_auth.copy()
        h.update(tag_bytes)
        h.update(masked)
        return h.digest()


class OpfOre(OreScheme):
    """The weakly correct base scheme (order-preserving tag + payload)."""

    def __init__(self, ell: int = 16, coin_len: int = 32):
        if not (1 <= ell <= 64):
            raise ValueError(f"ell must be in [1, 64], got {ell}")
        self.ell = ell
        self.coin_len = coin_len
        self.tag_bits = 3 * ell
        self.tag_len = (self.tag_bits + 7) // 8

    # -- key generation ----------------------------------------------------

    def gen_from_coins(self, coins: bytes) -> KeyMaterial:
        master = hashlib.blake2b(
            coins, key=b"opf-master-key", digest_size=32
        ).digest()
        sk = self.key_from_bytes(master)
        pid = hashlib.blake2b(master, key=b"opf-params-id", digest_size=16).digest()
        params = PublicParams(data=pid, ell=self.ell)
        return KeyMaterial(sk=sk, params=params, coins=coins)

    def key_from_bytes(self, key: bytes) -> OpfSecretKey:
        """The secret key whose master key bytes are ``key``, at this scheme's ell."""
        return OpfSecretKey(key, self.ell)

    # -- order tag ----------------------------------------------------------

    def tag(self, sk: OpfSecretKey, m: int) -> int:
        """Strictly monotone pseudorandom order tag of m under sk: the tag
        memo's entry for m, else ``self.tag_many(sk, [m])[0]``."""
        self._check_message(m)
        cached = sk._tags.get(m)
        if cached is not None:
            return cached
        return self.tag_many(sk, [m])[0]

    def tag_many(self, sk: OpfSecretKey, ms) -> list[int]:
        """Order tags of the messages ms; equal to ``[self.tag(sk, m) for m in ms]``.

        The one descent kernel.  The distinct unmemoized messages, sorted,
        walk down in groups that share a node, each led by its smallest
        message.  Where the leader turns left and others turn right, the
        group splits once and its right part waits on the stack, so each
        (depth, prefix) node on the messages' paths is hashed once per
        batch, inline, to the value ``sk.split_fraction`` defines.  Tags go
        into the tag memo, so a later ``tag`` or ``dec`` of the same message
        hits it.
        """
        ms = list(ms)
        for m in ms:
            self._check_message(m)
        tags, ell, copy, from_bytes = sk._tags, self.ell, sk._h_tag.copy, int.from_bytes
        found = {m: tags[m] for m in ms if m in tags}
        todo = sorted(set(ms).difference(found))
        # todo[lo:hi] share the node at depth d, whose tag interval is [tlo, tlo + w)
        stack = [(0, len(todo), 0, 0, 1 << self.tag_bits)] if todo else []
        while stack:
            lo, hi, d, tlo, w = stack.pop()
            m = todo[lo]
            prefix = m >> (ell - d)
            while d < ell:
                q = w >> 2
                if q < 1:
                    raise RuntimeError("tag interval degenerated")
                h = copy()
                h.update(((d << 64) | prefix).to_bytes(9, "big"))
                left = q + from_bytes(h.digest(), "big") % (w - 2 * q)
                d += 1
                prefix = m >> (ell - d)
                if prefix & 1:
                    tlo += left
                    w -= left
                    continue
                if hi - lo > 1:
                    # m turns left; the group's messages from the right
                    # child's first message on turn right
                    mid = bisect_left(todo, (prefix | 1) << (ell - d), lo + 1, hi)
                    if mid < hi:
                        stack.append((mid, hi, d, tlo + left, w - left))
                    hi = mid
                w = left
            if len(tags) > TAG_MEMO_MAX:
                tags.clear()
            tags[m] = found[m] = tlo
        return [found[m] for m in ms]

    # -- enc / dec / comp ---------------------------------------------------

    def enc(self, sk: OpfSecretKey, m: int) -> bytes:
        return self._seal(sk, self.tag(sk, m), m)

    def enc_many(self, sk: OpfSecretKey, ms) -> list[bytes]:
        ms = list(ms)
        return [self._seal(sk, t, m) for t, m in zip(self.tag_many(sk, ms), ms)]

    def _seal(self, sk: OpfSecretKey, t: int, payload: int) -> bytes:
        """Ciphertext bytes for order tag t and plaintext payload."""
        tag_bytes = t.to_bytes(self.tag_len, "big")
        masked = (payload ^ (sk.mask(tag_bytes) & ((1 << 64) - 1))).to_bytes(8, "big")
        auth = sk.auth(tag_bytes, masked)
        return bytes([OPF_VERSION, self.ell]) + tag_bytes + masked + auth

    def _parse(self, ct: bytes):
        """Strict parse of an honest-format ciphertext; None on any defect."""
        want = 2 + self.tag_len + _MASKED_LEN + _AUTH_LEN
        if len(ct) != want or ct[0] != OPF_VERSION or ct[1] != self.ell:
            return None
        tag_bytes = ct[2 : 2 + self.tag_len]
        masked = ct[2 + self.tag_len : 2 + self.tag_len + _MASKED_LEN]
        auth = ct[2 + self.tag_len + _MASKED_LEN :]
        return tag_bytes, masked, auth

    def dec(self, sk: OpfSecretKey, ct: bytes):
        """m if ct is exactly ``enc(sk, m)``, else BOT: the auth tag must hold,
        m be in the domain and ``tag(sk, m)`` be ct's tag, which fixes the
        mask too, so ``enc(sk, dec(sk, ct)) == ct`` whenever dec succeeds.

        A bytes-like ct is read as its bytes.  The first full check of a
        ciphertext stores its answer in the key's plaintext memo, and a
        repeat is answered from there.
        """
        if type(ct) is not bytes:
            ct = bytes(memoryview(ct))
        plains = sk._plains
        m = plains.get(ct)
        if m is None:
            m = self._full_check(sk, ct)
            if len(plains) > PLAIN_MEMO_MAX:
                plains.clear()
            plains[ct] = m
        return m

    def _full_check(self, sk: OpfSecretKey, ct: bytes):
        parsed = self._parse(ct)
        if parsed is None:
            return BOT
        tag_bytes, masked, auth = parsed
        if sk.auth(tag_bytes, masked) != auth:
            return BOT
        m = int.from_bytes(masked, "big") ^ (sk.mask(tag_bytes) & ((1 << 64) - 1))
        if m >= self.domain_size:
            return BOT
        # validity hardening: the order tag must match the recovered plaintext
        if self.tag(sk, m).to_bytes(self.tag_len, "big") != tag_bytes:
            return BOT
        return m

    def comp(self, params: PublicParams, c0: bytes, c1: bytes) -> Ordering3:
        # Weak scheme: compare tags only, never refuse.  Malformed bytes are
        # read leniently (zero-padded) and yield a deterministic garbage order.
        return compare_ints(self._lenient_tag(c0), self._lenient_tag(c1))

    def _lenient_tag(self, ct: bytes) -> int:
        """ct's tag bytes, zero-padded on the right to the tag length.  A
        bytes-like ct is read as its bytes, as ``dec`` reads it."""
        if type(ct) is not bytes:
            ct = bytes(memoryview(ct))
        body = ct[2 : 2 + self.tag_len]
        return int.from_bytes(body, "big") << (8 * (self.tag_len - len(body)))


def forge_spliced_ciphertext(
    scheme: OpfOre, sk: OpfSecretKey, tag_of: int, payload_of: int
) -> bytes:
    """Key-equipped forgery: the order tag of one message, the payload of another.

    The result carries a valid auth tag, so only the decryption hardening
    (tag consistency) rejects it, while the public comparison happily orders
    it by the spliced tag.  This is the witness pair on which the weak
    scheme fails strong correctness.
    """
    return scheme._seal(sk, scheme.tag(sk, tag_of), payload_of)
