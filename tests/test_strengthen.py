"""The weak-to-strong conversion: commitments, certifiers, and the identity
comp == decrypt-then-compare on arbitrary bytes."""

import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from hypothesis import given, settings, strategies as st

from orelearn.core import (
    BOT,
    MUTATION_CLASSES,
    Ordering3,
    check_strong_correctness,
    check_weak_correctness,
    comp_ciph,
    decode_blob,
    encode_blob,
    mutate_ciphertext,
)
from orelearn import core
from orelearn.opf import OpfOre, OpfSecretKey, forge_spliced_ciphertext
from orelearn.strengthen import (
    STRONG_VERSION,
    EscrowCertifier,
    SignatureCertifier,
    StrengthenedOre,
    commit,
    statement_bytes,
)


def _escrow_scheme(ell=8):
    return StrengthenedOre(OpfOre(ell=ell), EscrowCertifier())


def _sig_scheme(ell=8):
    return StrengthenedOre(OpfOre(ell=ell), SignatureCertifier())


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


def test_signature_certifier_accepts_honest_statements(rng):
    scheme = _sig_scheme()
    key = scheme.gen(rng)
    for m in range(0, 256, 17):
        ct = scheme.enc(key.sk, m)
        assert scheme.dec(key.sk, ct) == m


def test_signature_certifier_rejects_flipped_ciphertext_bit(rng):
    scheme = _sig_scheme()
    key = scheme.gen(rng)
    for trial in range(100):
        ct = bytearray(scheme.enc(key.sk, int(rng.integers(0, 256))))
        base_len = int.from_bytes(ct[2:6], "big")
        pos = int(rng.integers(6 * 8, (6 + base_len) * 8))  # inside the base ct
        ct[pos // 8] ^= 1 << (pos % 8)
        assert scheme.dec(key.sk, bytes(ct)) is BOT


def test_signature_certificate_does_not_transplant(rng):
    # a certificate binds to its own statement, not to any other ciphertext
    scheme = _sig_scheme()
    key = scheme.gen(rng)
    ct_a = scheme.enc(key.sk, 10)
    ct_b = scheme.enc(key.sk, 20)
    base_a, _cert_a = decode_blob(ct_a[2:], 2)
    _base_b, cert_b = decode_blob(ct_b[2:], 2)
    franken = ct_a[:2] + encode_blob(base_a, cert_b)
    assert scheme.dec(key.sk, franken) is BOT
    assert scheme.comp(key.params, franken, ct_b) is BOT


def test_escrow_accepts_every_honest_ciphertext(rng):
    scheme = _escrow_scheme()
    key = scheme.gen(rng)
    for m in range(256):
        assert scheme.dec(key.sk, scheme.enc(key.sk, m)) == m


def test_escrow_rejects_random_bytes(rng):
    scheme = _escrow_scheme()
    key = scheme.gen(rng)
    for _ in range(300):
        blob = bytes(rng.bytes(int(rng.integers(1, 80))))
        assert scheme.dec(key.sk, blob) is BOT


def test_escrow_rejects_the_spliced_forgery_witness(rng):
    base = OpfOre(ell=8)
    scheme = StrengthenedOre(base, EscrowCertifier())
    key = scheme.gen(rng)
    witness = forge_spliced_ciphertext(base, key.sk.base_sk, tag_of=200, payload_of=3)
    assert key.sk.cert_vk.verify(key.sk.base_params.data, key.sk.sigma, witness, b"") is False


def _refuse_to_encrypt(*args):
    raise AssertionError("escrow verification encrypted")


def test_escrow_verification_encrypts_nothing(rng, monkeypatch):
    base = OpfOre(ell=8)
    scheme = StrengthenedOre(base, EscrowCertifier())
    key = scheme.gen(rng)
    honest, _cert = scheme.parse(scheme.enc(key.sk, 42))
    spliced = forge_spliced_ciphertext(base, key.sk.base_sk, tag_of=200, payload_of=3)
    garbage = honest[:2] + bytes(rng.bytes(len(honest) - 2))
    monkeypatch.setattr(key.sk.cert_vk._base, "_seal", _refuse_to_encrypt)
    verdicts = [
        key.sk.cert_vk.verify(key.sk.base_params.data, key.sk.sigma, ct, b"")
        for ct in (honest, spliced, garbage)
    ]
    assert verdicts == [True, False, False]


def test_escrow_ciphertext_is_unique_only_up_to_its_certificate(rng):
    # escrow ignores the certificate field, so enc(dec(ct)) == ct holds for
    # the base scheme but not for the strengthened one
    scheme = _escrow_scheme()
    key = scheme.gen(rng)
    base_ct, cert = scheme.parse(scheme.enc(key.sk, 7))
    assert cert == b""
    ct = bytes([STRONG_VERSION, scheme.ell]) + encode_blob(base_ct, b"xyz")
    assert scheme.dec(key.sk, ct) == 7
    assert scheme.enc(key.sk, 7) != ct


def test_signature_certificate_signs_the_statement_bytes(rng):
    # the signed bytes are the documented statement encoding of the fields
    scheme = _sig_scheme()
    key = scheme.gen(rng)
    base_ct, cert = scheme.parse(scheme.enc(key.sk, 42))
    stmt = statement_bytes(key.sk.base_params.data, key.sk.sigma, base_ct)
    assert stmt == b"ore-statement-v1" + encode_blob(key.sk.base_params.data, key.sk.sigma, base_ct)
    Ed25519PublicKey.from_public_bytes(key.params.cert_vk.vk_bytes).verify(cert, stmt)


# -- the strengthened scheme --------------------------------------------------


@pytest.mark.parametrize("make", [_escrow_scheme, _sig_scheme], ids=["escrow", "signature"])
def test_roundtrip_exhaustive_ell8(make, rng):
    scheme = make()
    key = scheme.gen(rng)
    for m in range(256):
        assert scheme.dec(key.sk, scheme.enc(key.sk, m)) == m


@pytest.mark.parametrize("make", [_escrow_scheme, _sig_scheme], ids=["escrow", "signature"])
def test_strong_correctness_fuzz(make, rng):
    scheme = make()
    key = scheme.gen(rng)
    report = check_strong_correctness(scheme, key, trials=1500, rng=rng)
    assert report.passed, report.counts_by_class


@pytest.mark.parametrize("kind", ["opf", "escrow", "signature"])
def test_strong_checker_fully_checks_each_honest_ciphertext_once(kind, rng, monkeypatch):
    # a base ciphertext's first dec is its one full check (one auth tag not
    # made by _seal); every later dec, verification or comparison of it
    # reads the key's plaintext memo
    scheme = _BYTE_KEYS[kind]()
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
    scheme = _sig_scheme()
    key = scheme.gen(rng)
    ct = scheme.enc(key.sk, 99)
    base_ct, cert = decode_blob(ct[2:], 2)
    zeroed = ct[:2] + encode_blob(base_ct, bytes(len(cert)))
    assert scheme.dec(key.sk, zeroed) is BOT


@pytest.mark.parametrize("make", [_escrow_scheme, _sig_scheme], ids=["escrow", "signature"])
def test_comp_with_stripped_certificate_agrees_with_comp_ciph(make, rng):
    scheme = make()
    key = scheme.gen(rng)
    good = scheme.enc(key.sk, 7)
    victim = scheme.enc(key.sk, 200)
    base_ct, _cert = decode_blob(victim[2:], 2)
    stripped = victim[:2] + encode_blob(base_ct, b"")
    got = scheme.comp(key.params, good, stripped)
    assert got is BOT or not isinstance(scheme.certifier, SignatureCertifier)
    assert got is comp_ciph(scheme, key.sk, good, stripped)


def test_delegation_on_honest_pairs_matches_base(rng):
    base = OpfOre(ell=8)
    scheme = StrengthenedOre(base, EscrowCertifier())
    key = scheme.gen(rng)
    base_key_sk = key.sk.base_sk
    for _ in range(300):
        a, b = map(int, rng.integers(0, 256, size=2))
        strong = scheme.comp(key.params, scheme.enc(key.sk, a), scheme.enc(key.sk, b))
        weak = base.comp(
            key.sk.base_params, base.enc(base_key_sk, a), base.enc(base_key_sk, b)
        )
        assert strong is weak


def test_weak_correctness_preserved(rng):
    scheme = _escrow_scheme(ell=6)
    key = scheme.gen(rng)
    report = check_weak_correctness(
        scheme, [(a, b) for a in range(64) for b in range(64)], key
    )
    assert report.passed


def test_params_are_deterministic_in_coins():
    scheme = _sig_scheme(ell=16)
    coins = bytes(reversed(range(32)))
    k1 = scheme.gen_from_coins(coins)
    k2 = scheme.gen_from_coins(coins)
    assert k1.params.data == k2.params.data
    assert scheme.enc(k1.sk, 555) == scheme.enc(k2.sk, 555)


def test_params_len_matches_declaration(rng):
    # every scheme the library builds; coin_len 2 is the sq runner's tiny keyspace
    for ell in (1, 16, 64):
        for coin_len in (2, 32):
            base = OpfOre(ell=ell, coin_len=coin_len)
            strong = [StrengthenedOre(base, c()) for c in (EscrowCertifier, SignatureCertifier)]
            for scheme in (base, *strong):
                for _ in range(4):
                    assert len(scheme.gen(rng).params.data) == scheme.params_len()


def test_ciphertext_layout_is_length_prefixed(rng):
    scheme = _sig_scheme()
    key = scheme.gen(rng)
    ct = scheme.enc(key.sk, 42)
    assert ct[0] == 0x02 and ct[1] == scheme.ell
    base_ct, cert = decode_blob(ct[2:], 2)
    assert base_ct[0] == 0x01  # embedded base ciphertext keeps its own header
    assert len(cert) == 64  # ed25519 signature


# -- arbitrary bytes -------------------------------------------------------------

_BYTE_KEYS = {
    "opf": (lambda ell=8: OpfOre(ell=ell)),
    "escrow": _escrow_scheme,
    "signature": _sig_scheme,
}


def _edited(ct: bytes, pos: int, xor: int, cut: int, tail: bytes) -> bytes:
    b = bytearray(ct)
    b[pos % len(b)] ^= xor
    return bytes(b[:cut]) + tail


@pytest.mark.parametrize("kind", list(_BYTE_KEYS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dec_and_comp_take_arbitrary_bytes(kind, data):
    # dec and comp never raise; strengthened comp is decrypt-then-compare
    scheme = _BYTE_KEYS[kind]()
    key = scheme.gen_from_coins(bytes(range(32)))
    honest = st.integers(0, 255).map(lambda m: scheme.enc(key.sk, m))
    edited = st.builds(
        _edited, honest, st.integers(0, 200), st.integers(0, 255),
        st.integers(0, 200), st.binary(max_size=8),
    )
    cts = st.one_of(st.binary(max_size=140), honest, edited)
    c0, c1 = data.draw(cts), data.draw(cts)
    for c in (c0, c1):
        m = scheme.dec(key.sk, c)
        assert m is BOT or 0 <= m < 256
    got = scheme.comp(key.params, c0, c1)
    assert got is BOT or isinstance(got, Ordering3)
    if kind != "opf":
        assert got is comp_ciph(scheme, key.sk, c0, c1)


@pytest.mark.parametrize("kind", list(_BYTE_KEYS))
@pytest.mark.parametrize("like", [bytearray, memoryview])
@settings(max_examples=40, deadline=None)
@given(
    ms=st.lists(st.integers(0, 255), min_size=2, max_size=5),
    kinds=st.lists(st.sampled_from(MUTATION_CLASSES), min_size=5, max_size=5),
    seed=st.integers(0, 2**32),
)
def test_a_bytes_like_ciphertext_gets_the_answer_of_its_bytes(kind, like, ms, kinds, seed):
    # dec, comp and comp_many answer a bytes-like ciphertext exactly as they
    # answer bytes(ct), never with an exception; each key's memos are filled
    # by the bytes first on one key and by the bytes-like first on the other
    scheme = _BYTE_KEYS[kind]()
    coins = bytes(range(32))
    rng = np.random.default_rng(seed)
    honest = scheme.enc_many(scheme.gen_from_coins(coins).sk, ms)
    cts = [ct if k == "valid" else mutate_ciphertext(ct, k, rng) for ct, k in zip(honest, kinds)]
    anchor = cts[-1]

    def answers(key, wrap):
        return (
            [scheme.dec(key.sk, wrap(ct)) for ct in cts],
            [scheme.comp(key.params, wrap(c0), wrap(anchor)) for c0 in cts],
            scheme.comp_many(key.params, [wrap(ct) for ct in cts], wrap(anchor)),
        )

    plain_first, like_first = scheme.gen_from_coins(coins), scheme.gen_from_coins(coins)
    expected = answers(plain_first, bytes)
    assert answers(plain_first, like) == expected
    assert answers(like_first, like) == expected
    assert answers(like_first, bytes) == expected


@pytest.mark.parametrize("kind", list(_BYTE_KEYS))
@pytest.mark.parametrize("value", [5, [1, 2, 3], "ab"])
def test_dec_refuses_a_ciphertext_that_is_not_bytes_like(kind, value):
    # only the buffer protocol reads as bytes: bytes(5) would be five zero
    # bytes and bytes([1, 2, 3]) a ciphertext, so both stay a TypeError
    scheme = _BYTE_KEYS[kind]()
    key = scheme.gen_from_coins(bytes(range(32)))
    with pytest.raises(TypeError):
        scheme.dec(key.sk, value)


# -- one ciphertext length per scheme ----------------------------------------------


@pytest.mark.parametrize("kind", list(_BYTE_KEYS))
@settings(max_examples=60, deadline=None)
@given(ell=st.integers(1, 64), coins=st.binary(min_size=32, max_size=32), data=st.data())
def test_every_honest_ciphertext_has_the_one_length(kind, ell, coins, data):
    # the strong checker's FuzzPairSampler draws its mutations for this length
    # before it encrypts, and the sq config check reads it off the zero-coins key
    scheme = _BYTE_KEYS[kind](ell)
    sk = scheme.gen_from_coins(coins).sk
    ms = data.draw(st.lists(st.integers(0, scheme.domain_size - 1), max_size=8))
    cts = scheme.enc_many(sk, ms) + [scheme.enc(sk, m) for m in (0, scheme.domain_size - 1)]
    assert {len(ct) for ct in cts} == {scheme.ciphertext_len()}
