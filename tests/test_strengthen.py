"""The weak-to-strong conversion: commitments, certifiers, and comparison
on honest and malformed strengthened ciphertexts."""

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from orelearn.core import (
    BOT,
    check_strong_correctness,
    check_weak_correctness,
    comp_ciph,
    decode_blob,
    encode_blob,
)
from orelearn import core
from orelearn.opf import OpfOre, OpfSecretKey, forge_spliced_ciphertext
from orelearn.strengthen import STRONG_VERSION, SignatureCertifier, commit, statement_bytes
from test_contract import SCHEMES, STRENGTHENED, build_scheme


# -- commitment --------------------------------------------------------------


def test_commit_deterministic():
    assert commit(b"v", b"r") == commit(b"v", b"r")
    assert commit(b"v", b"r") != commit(b"w", b"r")


def test_commit_field_boundaries_bind():
    # length prefixes keep (value, randomness) splits from aliasing
    assert commit(b"ab", b"c") != commit(b"a", b"bc")


def test_binding_check_exhaustive_4k_values():
    # no two distinct values share a commitment over 4,096 values x 4 randomness
    owner = {}
    for i in range(4096):
        value = i.to_bytes(2, "big")
        for r in range(4):
            assert owner.setdefault(commit(value, r.to_bytes(1, "big")), value) == value
    assert len(owner) == 4096 * 4


# -- certifier behaviour ------------------------------------------------------


def test_signature_certifier_rejects_flipped_ciphertext_bit(rng):
    scheme = build_scheme("signature")
    key = scheme.gen(rng)
    for trial in range(100):
        ct = bytearray(scheme.enc(key.sk, int(rng.integers(0, 256))))
        base_len = int.from_bytes(ct[2:6], "big")
        pos = int(rng.integers(6 * 8, (6 + base_len) * 8))  # inside the base ct
        ct[pos // 8] ^= 1 << (pos % 8)
        assert scheme.dec(key.sk, bytes(ct)) is BOT


def test_signature_certificate_does_not_transplant(rng):
    # a certificate binds to its own statement, not to any other ciphertext
    scheme = build_scheme("signature")
    key = scheme.gen(rng)
    ct_a = scheme.enc(key.sk, 10)
    ct_b = scheme.enc(key.sk, 20)
    base_a, _cert_a = decode_blob(ct_a[2:], 2)
    _base_b, cert_b = decode_blob(ct_b[2:], 2)
    franken = ct_a[:2] + encode_blob(base_a, cert_b)
    assert scheme.dec(key.sk, franken) is BOT
    assert scheme.comp(key.params, franken, ct_b) is BOT


def test_escrow_rejects_random_bytes(rng):
    scheme = build_scheme("escrow")
    key = scheme.gen(rng)
    for _ in range(300):
        blob = bytes(rng.bytes(int(rng.integers(1, 80))))
        assert scheme.dec(key.sk, blob) is BOT


def test_escrow_rejects_the_spliced_forgery_witness(rng):
    scheme = build_scheme("escrow")
    key = scheme.gen(rng)
    witness = forge_spliced_ciphertext(scheme.base, key.sk.base_sk, tag_of=200, payload_of=3)
    params = key.params
    assert params.cert_vk.verify(params.base_params.data, params.sigma, witness, b"") is False


def _refuse_to_encrypt(*args):
    raise AssertionError("escrow verification encrypted")


def test_escrow_verification_encrypts_nothing(rng, monkeypatch):
    scheme = build_scheme("escrow")
    key = scheme.gen(rng)
    honest, _cert = scheme.parse(scheme.enc(key.sk, 42))
    spliced = forge_spliced_ciphertext(scheme.base, key.sk.base_sk, tag_of=200, payload_of=3)
    garbage = honest[:2] + bytes(rng.bytes(len(honest) - 2))
    monkeypatch.setattr(OpfOre, "_seal", _refuse_to_encrypt)
    params = key.params
    verdicts = [
        params.cert_vk.verify(params.base_params.data, params.sigma, ct, b"")
        for ct in (honest, spliced, garbage)
    ]
    assert verdicts == [True, False, False]


def test_escrow_ciphertext_is_unique_only_up_to_its_certificate(rng):
    # escrow ignores the certificate field, so enc(dec(ct)) == ct holds for
    # the base scheme but not for the strengthened one
    scheme = build_scheme("escrow")
    key = scheme.gen(rng)
    base_ct, cert = scheme.parse(scheme.enc(key.sk, 7))
    assert cert == b""
    ct = bytes([STRONG_VERSION, scheme.ell]) + encode_blob(base_ct, b"xyz")
    assert scheme.dec(key.sk, ct) == 7
    assert scheme.enc(key.sk, 7) != ct


def test_signature_certificate_signs_the_statement_bytes(rng):
    # the signed bytes are the documented statement encoding of the fields
    scheme = build_scheme("signature")
    key = scheme.gen(rng)
    base_ct, cert = scheme.parse(scheme.enc(key.sk, 42))
    params = key.params
    stmt = statement_bytes(params.base_params.data, params.sigma, base_ct)
    assert stmt == b"ore-statement-v1" + encode_blob(params.base_params.data, params.sigma, base_ct)
    Ed25519PublicKey.from_public_bytes(key.params.cert_vk.vk_bytes).verify(cert, stmt)


# -- the strengthened scheme --------------------------------------------------


@pytest.mark.parametrize("kind", STRENGTHENED)
def test_the_secret_key_holds_its_params(kind, rng):
    # dec verifies against the object comp is given: one copy of sigma and
    # of the verify key
    key = build_scheme(kind).gen(rng)
    assert key.sk.params is key.params


@pytest.mark.parametrize("kind", STRENGTHENED)
def test_strong_correctness_fuzz(kind, rng):
    scheme = build_scheme(kind)
    key = scheme.gen(rng)
    report = check_strong_correctness(scheme, key, trials=1500, rng=rng)
    assert report.passed, report.counts_by_class


@pytest.mark.parametrize("kind", SCHEMES)
def test_strong_checker_fully_checks_each_honest_ciphertext_once(kind, rng, monkeypatch):
    # a base ciphertext's first dec is its one full check (one auth tag not
    # made by _seal); every later dec, verification or comparison of it
    # reads the key's plaintext memo
    scheme = build_scheme(kind)
    key = scheme.gen(rng)
    cts = scheme.enc_many(key.sk, rng.integers(0, 256, size=40).tolist())
    pairs = list(zip(cts, cts[1:] + cts[:1])) + list(zip(cts, cts))
    calls = {"auth": 0, "seal": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(OpfSecretKey, "auth", counted("auth", OpfSecretKey.auth))
    monkeypatch.setattr(OpfOre, "_seal", counted("seal", OpfOre._seal))
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    report = check_strong_correctness(scheme, key, trials=0, rng=rng, extra_pairs=pairs)
    assert report.passed and report.checked == len(pairs)
    assert calls["auth"] - calls["seal"] == len(set(cts))


def test_dec_with_zeroed_certificate_is_bot(rng):
    scheme = build_scheme("signature")
    key = scheme.gen(rng)
    ct = scheme.enc(key.sk, 99)
    base_ct, cert = decode_blob(ct[2:], 2)
    zeroed = ct[:2] + encode_blob(base_ct, bytes(len(cert)))
    assert scheme.dec(key.sk, zeroed) is BOT


@pytest.mark.parametrize("kind", STRENGTHENED)
def test_comp_with_stripped_certificate_agrees_with_comp_ciph(kind, rng):
    scheme = build_scheme(kind)
    key = scheme.gen(rng)
    good = scheme.enc(key.sk, 7)
    victim = scheme.enc(key.sk, 200)
    base_ct, _cert = decode_blob(victim[2:], 2)
    stripped = victim[:2] + encode_blob(base_ct, b"")
    got = scheme.comp(key.params, good, stripped)
    assert got is BOT or not isinstance(scheme.certifier, SignatureCertifier)
    assert got is comp_ciph(scheme, key.sk, good, stripped)


def test_delegation_on_honest_pairs_matches_base(rng):
    scheme = build_scheme("escrow")
    base = scheme.base
    key = scheme.gen(rng)
    base_key_sk = key.sk.base_sk
    for _ in range(300):
        a, b = map(int, rng.integers(0, 256, size=2))
        strong = scheme.comp(key.params, scheme.enc(key.sk, a), scheme.enc(key.sk, b))
        weak = base.comp(
            key.params.base_params, base.enc(base_key_sk, a), base.enc(base_key_sk, b)
        )
        assert strong is weak


def test_weak_correctness_preserved(rng):
    scheme = build_scheme("escrow", 6)
    key = scheme.gen(rng)
    report = check_weak_correctness(
        scheme, [(a, b) for a in range(64) for b in range(64)], key
    )
    assert report.passed


def test_ciphertext_layout_is_length_prefixed(rng):
    scheme = build_scheme("signature")
    key = scheme.gen(rng)
    ct = scheme.enc(key.sk, 42)
    assert ct[0] == 0x02 and ct[1] == scheme.ell
    base_ct, cert = decode_blob(ct[2:], 2)
    assert base_ct[0] == 0x01  # embedded base ciphertext keeps its own header
    assert len(cert) == 64  # ed25519 signature
