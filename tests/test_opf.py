"""The weakly correct base scheme: tag monotonicity and its designed failure."""

import numpy as np
import pytest

from orelearn.core import (
    BOT,
    Ordering3,
    check_strong_correctness,
    check_weak_correctness,
    comp_ciph,
)
from orelearn.opf import OpfOre, OpfSecretKey, forge_spliced_ciphertext


def test_tag_monotone_exhaustive_ell8_ten_keys(rng):
    scheme = OpfOre(ell=8)
    for _ in range(10):
        key = scheme.gen(rng)
        tags = [scheme.tag(key.sk, m) for m in range(256)]
        assert all(a < b for a, b in zip(tags, tags[1:]))


def test_tag_monotone_exhaustive_ell12(rng):
    scheme = OpfOre(ell=12)
    key = scheme.gen(rng)
    tags = [scheme.tag(key.sk, m) for m in range(4096)]
    assert all(a < b for a, b in zip(tags, tags[1:]))


def test_tag_monotone_random_pairs_ell32(rng):
    scheme = OpfOre(ell=32)
    key = scheme.gen(rng)
    pairs = rng.integers(0, 2**32, size=(20_000, 2))
    for a, b in pairs:
        a, b = int(min(a, b)), int(max(a, b))
        if a == b:
            continue
        assert scheme.tag(key.sk, a) < scheme.tag(key.sk, b)


def test_tag_deterministic(rng):
    scheme = OpfOre(ell=16)
    key = scheme.gen(rng)
    assert scheme.tag(key.sk, 12345) == scheme.tag(key.sk, 12345)


def test_tag_sequences_differ_between_keys(rng):
    scheme = OpfOre(ell=8)
    k1, k2 = scheme.gen(rng), scheme.gen(rng)
    seq1 = [scheme.tag(k1.sk, m) for m in range(256)]
    seq2 = [scheme.tag(k2.sk, m) for m in range(256)]
    assert seq1 != seq2


def test_tag_in_declared_range(rng):
    scheme = OpfOre(ell=6)
    key = scheme.gen(rng)
    for m in range(64):
        assert 0 <= scheme.tag(key.sk, m) < 2 ** (3 * 6)


# Order tags under the coins bytes(range(32)) at messages 0, 1, N/2 and
# N - 1, pinned so that any change to the tag bytes fails here as well as in
# the report digests.
_KNOWN_TAGS = {
    1: {0: 0x0, 1: 0x5},
    3: {0: 0x0, 1: 0x22, 4: 0xDB, 7: 0x17E},
    16: {0: 0x0, 1: 0x64FA166B, 1 << 15: 0x8162919CA45B, (1 << 16) - 1: 0xFFFF5A25A45F},
    32: {
        0: 0x0,
        1: 0x3B5A2DF287E59B3F,
        1 << 31: 0x4EAC3191EDBF4162919CA45B,
        (1 << 32) - 1: 0xFFFFFFFFC5AD6EFAFF819EDD,
    },
    64: {
        0: 0x0,
        1: 0x188F45690141194BA634FDB0,
        1 << 63: 0x4000000000000000A7B137CE0EAC3191EDBF4162919CA45B,
        (1 << 64) - 1: 0xFFFFFFD4A92B5071E32FEB9A2F85AAF5270946B483678FE3,
    },
}


@pytest.mark.parametrize("ell", sorted(_KNOWN_TAGS))
def test_known_answer_tags(ell):
    scheme = OpfOre(ell=ell)
    known = _KNOWN_TAGS[ell]
    coins = bytes(range(32))
    assert scheme.tag_many(scheme.gen_from_coins(coins).sk, list(known)) == list(known.values())
    sk = scheme.gen_from_coins(coins).sk
    assert [scheme.tag(sk, m) for m in known] == list(known.values())


def test_a_tag_space_under_two_bits_per_level_degenerates():
    scheme = OpfOre(ell=8)
    # a child keeps under 3/4 of its parent plus one tag, so a 16-tag
    # interval is under 4 tags wide, with no middle half, by depth 7
    scheme.tag_bits = 4
    sk = scheme.gen_from_coins(bytes(32)).sk
    with pytest.raises(RuntimeError, match="degenerated"):
        scheme.tag(sk, 200)
    with pytest.raises(RuntimeError, match="degenerated"):
        scheme.tag_many(sk, [0, 255])


@pytest.mark.parametrize("m", [np.int64(3), 3.0, "3", None])
def test_a_message_that_is_not_an_int_is_a_type_error(m):
    scheme = OpfOre(ell=8)
    sk = scheme.gen_from_coins(bytes(32)).sk
    scheme.tag(sk, 3)  # a memo hit must not let an equal non-int through
    calls = (scheme.tag, scheme.enc, lambda sk, m: scheme.tag_many(sk, [1, m]),
             lambda sk, m: scheme.enc_many(sk, [m]))
    for call in calls:
        with pytest.raises(TypeError, match=type(m).__name__):
            call(sk, m)
    assert scheme.tag(sk, True) == scheme.tag(sk, 1)


def test_enc_rejects_out_of_domain(rng):
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    with pytest.raises(ValueError):
        scheme.enc(key.sk, 256)


def test_weak_correctness_exhaustive_ell6(rng):
    scheme = OpfOre(ell=6)
    key = scheme.gen(rng)
    pairs = [(a, b) for a in range(64) for b in range(64)]
    report = check_weak_correctness(scheme, pairs, key)
    assert report.passed and report.checked == 4096


def test_weak_correctness_statistical_ell32(rng):
    scheme = OpfOre(ell=32)
    key = scheme.gen(rng)
    pairs = [tuple(map(int, p)) for p in rng.integers(0, 2**32, size=(2000, 2))]
    report = check_weak_correctness(scheme, pairs, key)
    assert report.passed


def test_comp_never_bot_even_on_garbage(rng):
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    c = scheme.enc(key.sk, 77)
    for blob in (b"", b"\x00", bytes(rng.bytes(5)), bytes(rng.bytes(200))):
        assert scheme.comp(key.params, c, blob) is not BOT
        assert scheme.comp(key.params, blob, c) is not BOT


def test_spliced_forgery_is_strong_correctness_witness(rng):
    # tag of a high message spliced onto the payload of a low one: public
    # comparison orders it by tag while decryption refuses it
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    witness = forge_spliced_ciphertext(scheme, key.sk, tag_of=200, payload_of=3)
    probe = scheme.enc(key.sk, 100)
    assert scheme.dec(key.sk, witness) is BOT
    assert scheme.comp(key.params, witness, probe) is Ordering3.GT
    assert comp_ciph(scheme, key.sk, witness, probe) is BOT


def test_bitflip_mutants_break_strong_correctness(rng):
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    report = check_strong_correctness(scheme, key, trials=400, rng=rng)
    assert not report.passed
    flip_classes = [k for k in report.counts_by_class if "bitflip" in k]
    assert sum(report.counts_by_class[k] for k in flip_classes) > 0


def test_dec_rejects_wrong_key_ciphertexts(rng):
    scheme = OpfOre(ell=16)
    k1, k2 = scheme.gen(rng), scheme.gen(rng)
    for m in (0, 1, 9999, 65535):
        assert scheme.dec(k2.sk, scheme.enc(k1.sk, m)) is BOT


# -- the plaintext memo --------------------------------------------------------


def test_encryption_leaves_the_plaintext_memo_empty(rng):
    # only dec fills it, so the first dec of an honest ciphertext is a full check
    scheme = OpfOre(ell=16)
    key = scheme.gen(rng)
    scheme.enc_many(key.sk, rng.integers(0, scheme.domain_size, size=64).tolist())
    scheme.enc(key.sk, 5)
    assert key.sk._tags and key.sk._plains == {}


def test_dec_fully_checks_each_ciphertext_once(rng, monkeypatch):
    # the full check is the only auth-tag computation dec makes
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    honest = scheme.enc_many(key.sk, [3, 3, 7, 200])
    spliced = forge_spliced_ciphertext(scheme, key.sk, tag_of=7, payload_of=3)
    bad_auth = honest[0][:-1] + bytes([honest[0][-1] ^ 1])
    cts = honest + [spliced, bad_auth, spliced]
    checks = []
    auth = OpfSecretKey.auth
    monkeypatch.setattr(OpfSecretKey, "auth", lambda *a: checks.append(a) or auth(*a))
    first = [scheme.dec(key.sk, ct) for ct in cts]
    assert first == [3, 3, 7, 200, BOT, BOT, BOT]
    assert len(checks) == len(set(cts)) == 5
    assert [scheme.dec(key.sk, ct) for ct in cts] == first
    assert len(checks) == 5
