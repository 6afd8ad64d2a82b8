"""Generic weak-to-strong ORE conversion via per-ciphertext certificates.

The wrapper commits to the base secret key in the public parameters and
attaches to every ciphertext a certificate that the ciphertext is well
formed, i.e. that there exist m, sk', r with sigma = commit(sk'; r) and
c' = enc'(sk', m).  Decryption and comparison verify the certificate(s)
first and refuse (BOT) on any failure; otherwise they delegate to the base
scheme.  Certificate soundness then forces every accepted ciphertext into
the range of the deterministic base encryption, where weak correctness
already makes comparison agree with decryption — which is exactly strong
correctness.

A certifier's ``setup`` returns the proving key, a function
``certify(base_params, sigma, base_ct)``, and a verify key with
``verify(base_params, sigma, base_ct, cert)``: both take the statement's
parsed fields (params' bytes, sigma, c').  A signature verify key
memoizes its verdicts by that field tuple plus the certificate, with at
most ``VERDICT_MEMO_MAX + 1`` entries per key.  An escrow verify key keeps
no verdict memo: its verdict is a base decryption, which the base key's
plaintext memo already answers.  Two certifiers are shipped:

* ``SignatureCertifier`` — publicly verifiable: the certificate is an
  Ed25519 signature over the statement encoding of the fields, signed with
  a key generated inside gen and kept in the secret key.  Soundness is
  computational (forging a certificate means forging a signature).  Its
  backend, ``cryptography``, is imported on the first setup.
* ``EscrowCertifier`` — a simulation certifier, perfectly sound: the
  certificate is empty and the verification key holds a sealed reference to
  the base secret key, used solely to decrypt the base ciphertext; no
  statement is encoded.  Its serialized form leaks the base key bytes
  through the params; never deploy it.  It ignores the certificate field,
  so a strengthened escrow ciphertext is unique only up to that field.

Strengthened ciphertext layout (bit exact)::

    version=0x02 | ell (1 byte) | u32 len(c') | c' | u32 len(cert) | cert

Statement encoding (bit exact): b"ore-statement-v1" followed by the
length-prefixed fields (params', sigma, c') in that order.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from .core import (
    BOT,
    KeyMaterial,
    OreScheme,
    PublicParams,
    decode_blob,
    encode_blob,
)

__all__ = [
    "commit",
    "statement_bytes",
    "SignatureCertifier",
    "EscrowCertifier",
    "StrengthenedOre",
    "StrongSecretKey",
    "StrongParams",
    "STRONG_VERSION",
    "VERDICT_MEMO_MAX",
]

STRONG_VERSION = 0x02
VERDICT_MEMO_MAX = 4096  # a verify key's verdict memo is cleared once it holds more entries
_COMMIT_LEN = 32


# ---------------------------------------------------------------------------
# Commitment
# ---------------------------------------------------------------------------


def commit(value: bytes, randomness: bytes) -> bytes:
    """Keyed collision-resistant compression of (value, randomness).

    Deterministic in both arguments.  Binding is computational: two values
    sharing a commitment would be a keyed blake2b collision.
    """
    return hashlib.blake2b(
        encode_blob(value, randomness), key=b"ore-commit", digest_size=_COMMIT_LEN
    ).digest()


# ---------------------------------------------------------------------------
# Certifiers
# ---------------------------------------------------------------------------


def statement_bytes(base_params: bytes, sigma: bytes, base_ct: bytes) -> bytes:
    """Canonical encoding of the well-formedness statement for one ciphertext."""
    return b"ore-statement-v1" + encode_blob(base_params, sigma, base_ct)


@functools.cache
def _ed25519():
    """``cryptography``'s (Ed25519PrivateKey, Ed25519PublicKey,
    InvalidSignature), imported on the first call.

    Its Rust/OpenSSL extension costs about 6 MB resident, so only the runs
    that sign load it: ``SignatureCertifier.setup``, ``_SignatureVerifyKey``
    and ``validsig.Ed25519Scheme`` call this, and an escrow or weak-scheme
    run never does.  A ``correctness`` run sets its key up in the caller,
    so the checkers' forked children inherit the loaded backend; forked
    ``validsig`` trials set up their own keys, so each imports it in its
    own process.
    """
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )

    return Ed25519PrivateKey, Ed25519PublicKey, InvalidSignature


class SignatureCertifier:
    """Certificates are Ed25519 signatures over the statement encoding."""

    name = "signature"

    def setup(self, base: OreScheme, base_sk, seed: bytes):
        private_key, _, _ = _ed25519()
        sk = private_key.from_private_bytes(
            hashlib.blake2b(seed, key=b"cert-sign-seed", digest_size=32).digest()
        )
        vk = sk.public_key().public_bytes_raw()

        def certify(base_params: bytes, sigma: bytes, base_ct: bytes) -> bytes:
            return sk.sign(statement_bytes(base_params, sigma, base_ct))

        return certify, _SignatureVerifyKey(vk)


class _SignatureVerifyKey:
    __slots__ = ("vk_bytes", "_vk", "verdicts")

    kind = "signature"

    def __init__(self, vk_bytes: bytes):
        self.vk_bytes = vk_bytes
        _, public_key, _ = _ed25519()
        self._vk = public_key.from_public_bytes(vk_bytes)
        self.verdicts: dict[tuple, bool] = {}  # StrengthenedOre's memo of this key's verdicts

    def serialize(self) -> bytes:
        return b"sig:" + self.vk_bytes

    def verify(self, base_params: bytes, sigma: bytes, base_ct: bytes, cert: bytes) -> bool:
        _, _, invalid_signature = _ed25519()
        try:
            self._vk.verify(cert, statement_bytes(base_params, sigma, base_ct))
            return True
        except (invalid_signature, ValueError):
            return False


class EscrowCertifier:
    """Simulation certifier, perfectly complete and sound; the CLI's default.

    The certificate is empty; verification holds the base secret key in
    escrow and accepts exactly when the embedded base ciphertext decrypts,
    which is membership in the range of enc'(sk', .) because the base
    ``dec`` keeps the ``OreScheme`` contract.  The verify key serializes the
    base key into the params, which ``games --mode leak`` exploits.
    """

    name = "escrow"

    def setup(self, base: OreScheme, base_sk, seed: bytes):
        return _empty_certificate, _EscrowVerifyKey(base, base_sk)


def _empty_certificate(base_params: bytes, sigma: bytes, base_ct: bytes) -> bytes:
    return b""


class _EscrowVerifyKey:
    __slots__ = ("_base", "_base_sk", "verdicts")

    kind = "escrow"

    def __init__(self, base: OreScheme, base_sk):
        self._base = base
        self._base_sk = base_sk
        self.verdicts = None  # a repeat is answered by the base key's plaintext memo

    def serialize(self) -> bytes:
        # leaks the sealed key bytes; escrow mode is simulation-only
        return b"escrow:" + self._base_sk.key

    def verify(self, base_params: bytes, sigma: bytes, base_ct: bytes, cert: bytes) -> bool:
        """Whether base_ct is in the range of enc'(sk', .): the base ``dec``
        returns m only when the auth tag holds, m is in the domain and
        ``tag(m)`` is base_ct's tag, that is, only on the bytes ``enc'(sk', m)``."""
        return self._base.dec(self._base_sk, base_ct) is not BOT


# ---------------------------------------------------------------------------
# The strengthened scheme
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class StrongSecretKey:
    """Base key, its params and commitment sigma, and both certifier keys.

    The verification key is kept here as well as in params (mirroring a
    common reference string available to both sides) so decryption can
    check certificates without touching public parameters.
    """

    base_sk: object
    base_params: PublicParams
    sigma: bytes
    certify: object
    cert_vk: object


@dataclass(frozen=True, eq=False)  # equality and hashing stay on (data, ell)
class StrongParams(PublicParams):
    """(base params, key commitment, certificate verification key)."""

    base_params: PublicParams
    sigma: bytes
    cert_vk: object


class StrengthenedOre(OreScheme):
    """Wraps a weakly correct base scheme with well-formedness certificates."""

    def __init__(self, base: OreScheme, certifier):
        self.base = base
        self.certifier = certifier
        self.ell = base.ell
        self.coin_len = base.coin_len

    def gen_from_coins(self, coins: bytes) -> KeyMaterial:
        def sub(label: bytes) -> bytes:
            return hashlib.blake2b(coins, key=label, digest_size=32).digest()

        base_key = self.base.gen_from_coins(sub(b"strong-base-coins"))
        sigma = commit(base_key.sk.key, sub(b"strong-commit-rand"))
        certify, cert_vk = self.certifier.setup(
            self.base, base_key.sk, sub(b"strong-cert-seed")
        )
        sk = StrongSecretKey(base_key.sk, base_key.params, sigma, certify, cert_vk)
        params = StrongParams(
            data=encode_blob(base_key.params.data, sigma, cert_vk.serialize()),
            ell=base_key.params.ell,
            base_params=base_key.params,
            sigma=sigma,
            cert_vk=cert_vk,
        )
        return KeyMaterial(sk=sk, params=params, coins=coins)

    # -- enc / dec / comp ---------------------------------------------------

    def enc(self, sk: StrongSecretKey, m: int) -> bytes:
        return self._certified(sk, self.base.enc(sk.base_sk, m))

    def enc_many(self, sk: StrongSecretKey, ms) -> list[bytes]:
        return [self._certified(sk, c) for c in self.base.enc_many(sk.base_sk, ms)]

    def _certified(self, sk: StrongSecretKey, base_ct: bytes) -> bytes:
        """Wrap a base ciphertext with its well-formedness certificate."""
        cert = sk.certify(sk.base_params.data, sk.sigma, base_ct)
        return bytes([STRONG_VERSION, self.ell]) + encode_blob(base_ct, cert)

    def parse(self, ct: bytes):
        """Split a ciphertext, read as its bytes, into (base ciphertext,
        certificate); None if malformed."""
        if type(ct) is not bytes:
            ct = bytes(memoryview(ct))
        if len(ct) < 2 or ct[0] != STRONG_VERSION or ct[1] != self.ell:
            return None
        fields = decode_blob(ct[2:], 2)
        if fields is None:
            return None
        return fields[0], fields[1]

    def _verify(self, cert_vk, *fields: bytes) -> bool:
        """``cert_vk.verify(*fields)`` through the key's bounded verdict memo,
        if it has one (an escrow key has none).

        Verification is a pure function of the key and the whole field
        tuple (base_params, sigma, base_ct, cert), so a memo keyed by that
        tuple cannot change results; it lives on the verify key, so it dies
        with the key.
        """
        memo = cert_vk.verdicts
        if memo is None:
            return cert_vk.verify(*fields)
        hit = memo.get(fields)
        if hit is not None:
            return hit
        ok = cert_vk.verify(*fields)
        if len(memo) > VERDICT_MEMO_MAX:
            memo.clear()
        memo[fields] = ok
        return ok

    def dec(self, sk: StrongSecretKey, ct: bytes):
        parsed = self.parse(ct)
        if parsed is None:
            return BOT
        base_ct, cert = parsed
        if not self._verify(sk.cert_vk, sk.base_params.data, sk.sigma, base_ct, cert):
            return BOT
        return self.base.dec(sk.base_sk, base_ct)

    def comp(self, params: StrongParams, c0: bytes, c1: bytes):
        return self.comp_many(params, [c0], c1)[0]

    def comp_many(self, params: StrongParams, cts, c1: bytes) -> list:
        """``[self.comp(params, c0, c1) for c0 in cts]`` with c1 parsed once
        and verified at most once.

        Each c0 is parsed and its certificate verified through ``_verify``,
        as a lone ``comp`` would; c1 is verified when the first c0
        passes, and a c1 that fails to parse or verify refuses the rest of
        the batch.  Every c0 is still parsed, so one that is not bytes-like
        raises ``TypeError`` whatever c1 is.
        """
        p1 = self.parse(c1)
        base_params = params.base_params

        def verified(parsed) -> bool:
            return self._verify(params.cert_vk, base_params.data, params.sigma, *parsed)

        anchor_ok = None if p1 is not None else False  # c1's verdict, once some c0 needs it
        out = []
        for c0 in cts:
            p0 = self.parse(c0)
            if anchor_ok is False or p0 is None or not verified(p0):
                out.append(BOT)
                continue
            if anchor_ok is None:
                anchor_ok = verified(p1)
            out.append(self.base.comp(base_params, p0[0], p1[0]) if anchor_ok else BOT)
        return out
