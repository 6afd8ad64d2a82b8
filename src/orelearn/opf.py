"""A weakly correct ORE instantiation built from a keyed order-preserving tag.

Ciphertexts carry a pseudorandom order tag that is strictly increasing in
the plaintext under a fixed key, followed by an authenticated payload that
lets decryption recover the plaintext and reject tampered bytes.  The
public comparison reads *only* the tag, so it never refuses: honest
ciphertexts always compare in plaintext order (weak correctness), while a
spliced (tag, payload) pair compares by its tag even though decryption
rejects it.  That deliberate gap is the motivating counterexample for the
strengthening transformation in :mod:`orelearn.strengthen`.

Tag construction (binary descent): maintain a domain interval [dlo, dhi)
and a tag interval [tlo, thi).  At each of ell levels, split the domain at
its midpoint and split the tag interval at a pseudorandom point in its
middle half, keyed by the descent path; recurse into the half containing
the message and return tlo at the leaf.  With a 3*ell-bit tag space and
splits confined to the middle half, every child interval keeps at least a
quarter of its parent, so all 2**ell leaf intervals are nonempty and the
tag is strictly monotone.

Ciphertext body layout (bit exact)::

    version=0x01 | ell (1 byte) | tag (ceil(3*ell/8) bytes, big endian)
                 | masked plaintext (8 bytes) | auth tag (16 bytes)

The payload mask is a keyed hash of the order tag; the 128-bit auth tag is
a keyed hash over (tag || masked) so any modified byte fails verification
except with probability 2**-128.  Encryption is deterministic: the
strengthening transformation requires a unique ciphertext per (sk, m).
"""

from __future__ import annotations

import hashlib

from .core import BOT, KeyMaterial, Ordering3, OreScheme, PublicParams, compare_ints

__all__ = ["OpfOre", "OpfSecretKey", "forge_spliced_ciphertext", "OPF_VERSION"]

OPF_VERSION = 0x01
_MASKED_LEN = 8
_AUTH_LEN = 16


class OpfSecretKey:
    """Key material for the tag/payload construction.

    Holds three independent keyed-hash keys (tag descent, payload mask,
    payload auth) derived from the master key bytes, plus small memo tables
    for descent splits and full tags.  The memos cache pure functions of
    the key and are bounded, so behaviour stays deterministic.
    """

    __slots__ = ("key", "ell", "_h_tag", "_h_mask", "_h_auth", "_splits", "_tags")

    def __init__(self, key: bytes, ell: int):
        self.key = key
        self.ell = ell
        self._h_tag = hashlib.blake2b(key + b"\x01", digest_size=16)
        self._h_mask = hashlib.blake2b(key + b"\x02", digest_size=_MASKED_LEN)
        self._h_auth = hashlib.blake2b(key + b"\x03", digest_size=_AUTH_LEN)
        self._splits: dict[tuple[int, int], int] = {}
        self._tags: dict[int, int] = {}

    def __eq__(self, other):
        return (
            isinstance(other, OpfSecretKey)
            and self.key == other.key
            and self.ell == other.ell
        )

    def __hash__(self):
        return hash((self.key, self.ell))

    def split_fraction(self, depth: int, prefix: int) -> int:
        """Pseudorandom 64-bit value for the descent node (depth, prefix)."""
        v = self._splits.get((depth, prefix))
        if v is None:
            h = self._h_tag.copy()
            h.update(depth.to_bytes(1, "big") + prefix.to_bytes(8, "big"))
            v = int.from_bytes(h.digest(), "big")
            if len(self._splits) > (1 << 18):
                self._splits.clear()
            self._splits[(depth, prefix)] = v
        return v

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

    name = "opf"

    def __init__(self, lam: int = 128, ell: int = 16, coin_len: int = 32):
        if not (1 <= ell <= 64):
            raise ValueError(f"ell must be in [1, 64], got {ell}")
        self.lam = lam
        self.ell = ell
        self.coin_len = coin_len
        self.tag_bits = 3 * ell
        self.tag_len = (self.tag_bits + 7) // 8

    # -- key generation ----------------------------------------------------

    def gen_from_coins(self, coins: bytes) -> KeyMaterial:
        master = hashlib.blake2b(
            coins, key=b"opf-master-key", digest_size=32
        ).digest()
        sk = OpfSecretKey(master, self.ell)
        pid = hashlib.blake2b(master, key=b"opf-params-id", digest_size=16).digest()
        params = PublicParams(data=pid, ell=self.ell)
        return KeyMaterial(sk=sk, params=params, coins=coins)

    def params_len(self) -> int:
        return 16

    # -- order tag ----------------------------------------------------------

    def tag(self, sk: OpfSecretKey, m: int) -> int:
        """Strictly monotone pseudorandom order tag of m under sk."""
        self._check_message(m)
        cached = sk._tags.get(m)
        if cached is not None:
            return cached
        tlo, thi = 0, 1 << self.tag_bits
        ell = self.ell
        for depth in range(ell):
            width = thi - tlo
            quarter = width >> 2
            # split point confined to the middle half keeps both children
            # at least a quarter of the parent: 2**(3*ell) / 4**ell = 2**ell
            # leaf intervals survive, so strict monotonicity is unconditional.
            if quarter < 1:
                raise RuntimeError("tag interval degenerated")
            prefix = m >> (ell - depth)
            span = width - 2 * quarter
            split = tlo + quarter + sk.split_fraction(depth, prefix) % span
            if (m >> (ell - 1 - depth)) & 1:
                tlo = split
            else:
                thi = split
        if len(sk._tags) > (1 << 18):
            sk._tags.clear()
        sk._tags[m] = tlo
        return tlo

    # -- enc / dec / comp ---------------------------------------------------

    def enc(self, sk: OpfSecretKey, m: int) -> bytes:
        t = self.tag(sk, m)
        tag_bytes = t.to_bytes(self.tag_len, "big")
        masked = (m ^ (sk.mask(tag_bytes) & ((1 << 64) - 1))).to_bytes(8, "big")
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
        body = ct[2 : 2 + self.tag_len]
        if len(body) < self.tag_len:
            body = body + b"\x00" * (self.tag_len - len(body))
        return int.from_bytes(body, "big")


def forge_spliced_ciphertext(
    scheme: OpfOre, sk: OpfSecretKey, tag_of: int, payload_of: int
) -> bytes:
    """Key-equipped forgery: the order tag of one message, the payload of another.

    The result carries a valid auth tag, so only the decryption hardening
    (tag consistency) rejects it, while the public comparison happily orders
    it by the spliced tag.  This is the witness pair on which the weak
    scheme fails strong correctness.
    """
    t = scheme.tag(sk, tag_of)
    tag_bytes = t.to_bytes(scheme.tag_len, "big")
    masked = (payload_of ^ (sk.mask(tag_bytes) & ((1 << 64) - 1))).to_bytes(8, "big")
    auth = sk.auth(tag_bytes, masked)
    return bytes([OPF_VERSION, scheme.ell]) + tag_bytes + masked + auth
