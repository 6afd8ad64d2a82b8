"""Core comparison semantics, checkers, and serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orelearn import core
from orelearn.core import (
    BOT,
    MUTATION_CLASSES,
    Bot,
    Ordering3,
    PublicParams,
    check_strong_correctness,
    check_weak_correctness,
    comp_ciph,
    compare_ints,
    decode_blob,
    encode_blob,
    mutate_ciphertext,
)
from orelearn.opf import OpfOre


def test_comp_plain_total_order_exhaustive_ell6():
    # antisymmetry and transitivity on every pair/triple of the ell=6 domain
    domain = range(64)
    swapped = {Ordering3.LT: Ordering3.GT, Ordering3.GT: Ordering3.LT, Ordering3.EQ: Ordering3.EQ}
    for a, b in itertools.product(domain, repeat=2):
        assert swapped[compare_ints(a, b)] is compare_ints(b, a)
    lt = [[compare_ints(a, b) is Ordering3.LT for b in domain] for a in domain]
    for a, b, c in itertools.product(domain, repeat=3):
        if lt[a][b] and lt[b][c]:
            assert lt[a][c]


@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_compare_ints_matches_python_order(a, b):
    r = compare_ints(a, b)
    assert (r is Ordering3.LT) == (a < b)
    assert (r is Ordering3.GT) == (a > b)
    assert (r is Ordering3.EQ) == (a == b)


def test_bot_is_singleton_and_falsy():
    assert Bot() is BOT
    assert not BOT
    assert repr(BOT) == "BOT"


def test_comp_ciph_decrypt_then_compare(rng):
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    c2, c9 = scheme.enc(key.sk, 2), scheme.enc(key.sk, 9)
    assert comp_ciph(scheme, key.sk, c2, c9) is Ordering3.LT
    assert comp_ciph(scheme, key.sk, c9, c9) is Ordering3.EQ


def test_comp_ciph_bot_on_garbage(rng):
    # random 64-byte strings fail the authenticity check
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    c4 = scheme.enc(key.sk, 4)
    for _ in range(200):
        garbage = bytes(rng.bytes(64))
        assert comp_ciph(scheme, key.sk, c4, garbage) is BOT
        assert comp_ciph(scheme, key.sk, garbage, c4) is BOT


def test_comp_ciph_agrees_with_comp_plain_exhaustive_ell6(rng):
    scheme = OpfOre(ell=6)
    key = scheme.gen(rng)
    cts = [scheme.enc(key.sk, m) for m in range(64)]
    for a in range(64):
        for b in range(64):
            assert comp_ciph(scheme, key.sk, cts[a], cts[b]) is compare_ints(a, b)


def test_check_decryption_correctness_many_keys(rng):
    # dec(enc(m)) == m for 100 messages under each of 10 fresh keys
    scheme = OpfOre(ell=16)
    ms = [int(m) for m in rng.integers(0, 2**16, size=100)]
    for _ in range(10):
        key = scheme.gen(rng)
        assert [scheme.dec(key.sk, ct) for ct in scheme.enc_many(key.sk, ms)] == ms


class _InvertedCompScheme(OpfOre):
    """Negative control: comparison answers are flipped (the operands are
    compared swapped)."""

    def comp(self, params, c0, c1):
        return super().comp(params, c1, c0)


def test_check_weak_correctness_detects_inverted_comparator(rng):
    scheme = _InvertedCompScheme(ell=6)
    key = scheme.gen(rng)
    pairs = [(a, b) for a in range(16) for b in range(16)]
    report = check_weak_correctness(scheme, pairs, key)
    strict = sum(1 for a, b in pairs if a != b)
    assert len(report.failures) == strict  # every strict pair flips, EQ survives


def test_check_weak_correctness_iterates_the_pairs_once(rng):
    scheme = _InvertedCompScheme(ell=6)
    key = scheme.gen(rng)
    pairs = [(a, b) for a in range(8) for b in range(8)] * 2  # every message repeats
    want = check_weak_correctness(scheme, pairs, key)
    got = check_weak_correctness(scheme, (pair for pair in pairs), key)  # one-shot
    assert got.checked == want.checked == len(pairs)
    assert got.failures == want.failures and got.failures


def test_check_weak_correctness_equal_pairs_all_eq(rng):
    scheme = OpfOre(ell=10)
    key = scheme.gen(rng)
    report = check_weak_correctness(scheme, [(m, m) for m in range(0, 1024, 11)], key)
    assert report.passed


def test_strong_correctness_checker_counts_by_class(rng):
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    report = check_strong_correctness(scheme, key, trials=300, rng=rng)
    assert not report.passed
    assert sum(report.counts_by_class.values()) == len(report.failures)
    # honest pairs never disagree for a weakly correct scheme
    assert report.counts_by_class.get("valid+valid", 0) == 0


class _LengthByMessage(OpfOre):
    """Pads each ciphertext with m % 3 zero bytes, so its length depends on
    the message, against the one-length contract of ``OreScheme``."""

    def _seal(self, sk, t, payload):
        return super()._seal(sk, t, payload) + bytes(payload % 3)


@pytest.mark.parametrize("cpus", [1, 2])
def test_strong_checker_refuses_a_scheme_of_many_ciphertext_lengths(cpus, monkeypatch):
    # its mutations were drawn for the encryption of 0; a pair built from a
    # longer encryption would be another pair, so it raises instead
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    scheme = _LengthByMessage(ell=8)
    key = scheme.gen_from_coins(bytes(32))
    with pytest.raises(ValueError, match=r"is 3[01] bytes, but the key's encryption of 0 is 29"):
        check_strong_correctness(scheme, key, trials=20, rng=np.random.default_rng(0))


@given(st.binary(min_size=1, max_size=64), st.integers(0, 2**32 - 1))
def test_mutate_ciphertext_classes(ct, seed):
    flipped = mutate_ciphertext(ct, "bitflip", np.random.default_rng(seed))
    assert len(flipped) == len(ct)
    assert sum(bin(a ^ b).count("1") for a, b in zip(ct, flipped)) == 1
    cut = mutate_ciphertext(ct, "truncate", np.random.default_rng(seed))
    assert len(cut) < len(ct) and ct.startswith(cut)
    noise = mutate_ciphertext(ct, "random", np.random.default_rng(seed))
    assert 1 <= len(noise) < len(ct) + 16
    with pytest.raises(ValueError):
        mutate_ciphertext(ct, "valid", np.random.default_rng(seed))


@given(
    st.binary(max_size=64),
    st.sampled_from(MUTATION_CLASSES[1:]),
    st.sampled_from(MUTATION_CLASSES[1:]),
    st.integers(0, 2**32 - 1),
)
def test_mutating_twice_never_raises(ct, first, second, seed):
    # a one-byte ciphertext truncates to b"", which the second mutation takes
    rng = np.random.default_rng(seed)
    mutate_ciphertext(mutate_ciphertext(ct, first, rng), second, rng)


@pytest.mark.parametrize("kind", ["bitflip", "truncate"])
def test_empty_ciphertext_comes_back_unchanged_without_a_draw(kind):
    rng = np.random.default_rng(3)
    assert mutate_ciphertext(b"", kind, rng) == b""
    assert rng.integers(0, 2**63) == np.random.default_rng(3).integers(0, 2**63)


def test_determinism_fixed_coins():
    scheme = OpfOre(ell=16)
    coins = bytes(range(32))
    k1, k2 = scheme.gen_from_coins(coins), scheme.gen_from_coins(coins)
    assert k1.params.data == k2.params.data
    for m in (0, 1, 40000, 65535):
        assert scheme.enc(k1.sk, m) == scheme.enc(k2.sk, m)


def test_params_equality_and_hash():
    a = PublicParams(b"abc", 8)
    b = PublicParams(b"abc", 8)
    c = PublicParams(b"abd", 8)
    assert a == b and hash(a) == hash(b)
    assert a != c and a != PublicParams(b"abc", 9)


def test_blob_roundtrip_and_strictness():
    blob = encode_blob(b"", b"xy", b"\x00" * 5)
    assert decode_blob(blob, 3) == [b"", b"xy", b"\x00" * 5]
    assert decode_blob(blob + b"!", 3) is None  # trailing bytes rejected
    assert decode_blob(blob[:-1], 3) is None  # short buffer rejected
    assert decode_blob(b"", 1) is None
