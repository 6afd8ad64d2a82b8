"""The ``OreScheme`` contract, one property per rule, on every scheme the
library builds: the weak base ``opf`` and that base strengthened under the
``escrow`` and under the ``signature`` certifier, at every ell in 1..64 and
any coins.  ``SCHEMES`` and ``build_scheme`` are the one table the other
test modules build these three schemes from.

A stub scheme that breaks one rule fails that rule's property and no other.
"""

import functools
import itertools
import os

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from orelearn.core import (
    BOT, MUTATION_CLASSES, KeyMaterial, Ordering3, PublicParams, comp_ciph, compare_ints,
    encode_blob, mutate_ciphertext,
)
from orelearn.opf import OpfOre, forge_spliced_ciphertext
from orelearn.strengthen import STRONG_VERSION, EscrowCertifier, SignatureCertifier, StrengthenedOre

SCHEMES = {"opf": None, "escrow": EscrowCertifier, "signature": SignatureCertifier}
STRENGTHENED = ("escrow", "signature")


@functools.lru_cache(maxsize=None)
def build_scheme(kind: str, ell: int = 8, coin_len: int = 32):
    """The ``kind`` row of the table; schemes hold no memo, so rows are shared."""
    base = OpfOre(ell, coin_len)
    return base if SCHEMES[kind] is None else StrengthenedOre(base, SCHEMES[kind]())


def forged(scheme, sk, tag_of: int, payload_of: int) -> bytes:
    """A ciphertext that compares but does not decrypt: a spliced base
    ciphertext, under a zero certificate when strengthened."""
    if isinstance(scheme, OpfOre):
        return forge_spliced_ciphertext(scheme, sk, tag_of, payload_of)
    base_ct = forge_spliced_ciphertext(scheme.base, sk.base_sk, tag_of, payload_of)
    return bytes([STRONG_VERSION, scheme.ell]) + encode_blob(base_ct, bytes(64))


def _answer(call, *args):
    """``call(*args)``, or the type of the exception it raises."""
    try:
        return call(*args)
    except Exception as error:
        return type(error)


def _messages(scheme, **size):
    return st.lists(st.integers(0, scheme.domain_size - 1), **size)


def _mutants(scheme, sk, draw):
    """Honest ciphertexts under sk, each kept or mutated by one class."""
    honest = [scheme.enc(sk, m) for m in draw(_messages(scheme, min_size=2, max_size=6))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kinds = [draw(st.sampled_from(MUTATION_CLASSES)) for _ in honest]
    return [ct if k == "valid" else mutate_ciphertext(ct, k, rng) for ct, k in zip(honest, kinds)]


# -- one property per rule ------------------------------------------------------
# each takes the scheme, the coins of its keys and a hypothesis draw


def _gen(scheme, coins, draw):
    # gen is deterministic in the coins, at the declared params length
    first, second = scheme.gen_from_coins(coins), scheme.gen_from_coins(coins)
    assert first.params.data == second.params.data
    assert len(first.params.data) == scheme.params_len()


def _enc(scheme, coins, draw):
    # one ciphertext per (key, m), the same under every key from the coins,
    # of the one length; enc_many is per-item enc over any iterable.  The
    # messages are unsorted, with repeats and both ends of the domain
    base = draw(_messages(scheme, max_size=24))
    ms = draw(st.permutations(base + base[: draw(st.integers(0, len(base)))]))
    ms += [0, scheme.domain_size - 1]
    sk, twin = scheme.gen_from_coins(coins).sk, scheme.gen_from_coins(coins).sk
    cts = [scheme.enc(sk, m) for m in ms]
    assert [scheme.enc(twin, m) for m in ms] == cts
    assert {len(ct) for ct in cts} == {scheme.ciphertext_len()}
    assert scheme.enc_many(scheme.gen_from_coins(coins).sk, ms) == cts
    assert scheme.enc_many(scheme.gen_from_coins(coins).sk, iter(ms)) == cts


def _dec(scheme, coins, draw):
    # dec(enc(m)) == m, on the whole domain when it has at most 256
    # messages, and dec returns m only on the bytes enc(sk, m): a mutant, an
    # honest ciphertext with bytes appended, a spliced ciphertext or another
    # key's ciphertext decrypts only if it is the encryption of its answer
    sk, n = scheme.gen_from_coins(coins).sk, scheme.domain_size
    for m in range(n) if n <= 256 else draw(_messages(scheme, min_size=1, max_size=4)):
        assert scheme.dec(sk, scheme.enc(sk, m)) == m
    m = draw(st.integers(0, n - 1))
    honest, rng = scheme.enc(sk, m), np.random.default_rng(draw(st.integers(0, 2**32)))
    other = scheme.gen_from_coins(draw(st.binary(min_size=1, max_size=32).filter(coins.__ne__))).sk
    candidates = [mutate_ciphertext(honest, k, rng) for k in MUTATION_CLASSES[1:]] + [
        honest + draw(st.binary(min_size=1, max_size=8)),
        forged(scheme, sk, (m + draw(st.integers(1, n - 1))) % n, m),
        scheme.enc(other, m),
    ]
    for ct in candidates:
        got = scheme.dec(sk, ct)
        if got is not BOT:
            assert scheme.enc(sk, got) == ct


def _edited(ct: bytes, pos: int, xor: int, cut: int, tail: bytes) -> bytes:
    b = bytearray(ct)
    b[pos % len(b)] ^= xor
    return bytes(b[:cut]) + tail


def _junk(scheme, coins, draw):
    # dec and comp answer arbitrary bytes with a value or BOT, never an
    # exception; a strengthened comp is decrypt-then-compare
    key = scheme.gen_from_coins(coins)
    honest = st.integers(0, scheme.domain_size - 1).map(lambda m: scheme.enc(key.sk, m))
    edited = st.builds(
        _edited, honest, st.integers(0, 200), st.integers(0, 255),
        st.integers(0, 200), st.binary(max_size=8),
    )
    cts = st.one_of(st.binary(max_size=140), honest, edited)
    c0, c1 = draw(cts), draw(cts)
    for c in (c0, c1):
        m = scheme.dec(key.sk, c)
        assert m is BOT or 0 <= m < scheme.domain_size
    got = scheme.comp(key.params, c0, c1)
    assert got is BOT or isinstance(got, Ordering3)
    if isinstance(scheme, StrengthenedOre):
        assert got is comp_ciph(scheme, key.sk, c0, c1)


def _bytes_like(scheme, coins, draw):
    # dec, comp and comp_many answer a bytes-like ciphertext exactly as they
    # answer its bytes; each key's memos are filled by the bytes first on one
    # key and by the bytes-like first on the other
    cts = _mutants(scheme, scheme.gen_from_coins(coins).sk, draw)
    anchor, like = cts[-1], draw(st.sampled_from([bytearray, memoryview]))

    def answers(key, wrap):
        return (
            [_answer(scheme.dec, key.sk, wrap(ct)) for ct in cts],
            [_answer(scheme.comp, key.params, wrap(c0), wrap(anchor)) for c0 in cts],
            _answer(scheme.comp_many, key.params, [wrap(ct) for ct in cts], wrap(anchor)),
        )

    plain_first, like_first = scheme.gen_from_coins(coins), scheme.gen_from_coins(coins)
    expected = answers(plain_first, bytes)
    assert answers(plain_first, like) == expected
    assert answers(like_first, like) == expected
    assert answers(like_first, bytes) == expected
    # only the buffer protocol reads as bytes: bytes(5) would be five zero
    # bytes and bytes([1, 2, 3]) a ciphertext, so anything else is a
    # TypeError in every slot, whatever the other ciphertext
    key = plain_first
    ct = scheme.enc(key.sk, draw(st.integers(0, scheme.domain_size - 1)))
    source, other = draw(st.just(ct) | st.binary(max_size=40)), draw(st.sampled_from([ct, b"junk"]))
    for wrap in (list, tuple, lambda b: int.from_bytes(b, "big"), bytes.hex):
        bad = wrap(source)
        calls = (
            lambda: scheme.dec(key.sk, bad),
            lambda: scheme.comp(key.params, bad, other),
            lambda: scheme.comp(key.params, other, bad),
            lambda: scheme.comp_many(key.params, [ct, bad], other),
            lambda: scheme.comp_many(key.params, [ct], bad),
        )
        for call in calls:
            with pytest.raises(TypeError):
                call()


def _comp_many(scheme, coins, draw):
    # comp_many is per-item comp, against an honest, mutated, forged or junk anchor
    key, twin = scheme.gen_from_coins(coins), scheme.gen_from_coins(coins)
    cts = _mutants(scheme, key.sk, draw)
    c1 = draw(st.sampled_from(cts + [forged(scheme, key.sk, scheme.domain_size - 1, 0), b"junk"]))
    per_item = _answer(lambda: [scheme.comp(twin.params, c0, c1) for c0 in cts])
    assert _answer(scheme.comp_many, key.params, cts, c1) == per_item


def _honest_order(scheme, coins, draw):
    # on honest ciphertexts comp is compare_ints of the messages
    key = scheme.gen_from_coins(coins)
    a, b = draw(_messages(scheme, min_size=2, max_size=2))
    ca, cb = scheme.enc(key.sk, a), scheme.enc(key.sk, b)
    assert scheme.comp(key.params, ca, cb) is compare_ints(a, b)
    assert scheme.comp(key.params, ca, ca) is Ordering3.EQ


RULES = {  # rule -> (property, examples per table row)
    "gen": (_gen, 25),
    "enc": (_enc, 60),
    "dec": (_dec, 40),
    "junk": (_junk, 150),
    "bytes-like": (_bytes_like, 80),
    "comp_many": (_comp_many, 40),
    "honest-order": (_honest_order, 40),
}


def _search(build, rule: str, **overrides):
    """Run one rule's property on ``build(ell, coins)`` over drawn ell and coins."""
    prop, examples = RULES[rule]

    @settings(**{"max_examples": examples, "deadline": None, **overrides})
    @given(ell=st.integers(1, 64), coins=st.binary(min_size=1, max_size=32), data=st.data())
    def search(ell, coins, data):
        prop(build(ell, coins), coins, data.draw)

    search()


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("kind", SCHEMES)
def test_every_scheme_keeps_the_contract(kind, rule):
    # the scheme's coin length is the drawn coins' length, down to the sq
    # runner's tiny keyspace of 2
    _search(lambda ell, coins: build_scheme(kind, ell, len(coins)), rule)


# -- stubs that each break one rule ------------------------------------------------


class _NoncedParams(OpfOre):
    """gen puts a fresh nonce in the params: the right length, other bytes."""

    def gen_from_coins(self, coins):
        key = super().gen_from_coins(coins)
        return KeyMaterial(key.sk, PublicParams(os.urandom(16), self.ell))


class _AlternatingEnc(OpfOre):
    """enc alternates between two version bytes, both of which dec accepts."""

    _calls = itertools.count()

    def enc(self, sk, m):
        ct = super().enc(sk, m)
        return ct if next(self._calls) % 2 else b"\xfe" + ct[1:]

    def dec(self, sk, ct):
        return super().dec(sk, b"\x01" + ct[1:] if ct[:1] == b"\xfe" else ct)


class _ReversedEncMany(OpfOre):
    def enc_many(self, sk, ms):
        return super().enc_many(sk, ms)[::-1]


class _TailBlindDec(OpfOre):
    """dec ignores any bytes after one ciphertext length."""

    def dec(self, sk, ct):
        return super().dec(sk, ct[: self.ciphertext_len()])


class _StrictComp(OpfOre):
    """comp raises when c0 has another length than an honest ciphertext."""

    def comp(self, params, c0, c1):
        got = super().comp(params, c0, c1)
        if len(c0) != self.ciphertext_len():
            raise ValueError("malformed ciphertext")
        return got


class _ListsAreBytes(OpfOre):
    """dec reads a list or tuple of byte values as those bytes."""

    def dec(self, sk, ct):
        return super().dec(sk, bytes(ct) if isinstance(ct, (list, tuple)) else ct)


class _ReversedCompMany(OpfOre):
    def comp_many(self, params, cts, c1):
        return super().comp_many(params, cts, c1)[::-1]


class InvertedComp(OpfOre):
    """Flips every strict comparison (by comparing the operands swapped) and refuses
    (BOT) every equal or malformed one, so every honest pair fails the weak check."""

    def comp(self, params, c0, c1):
        got = super().comp(params, c1, c0)
        return BOT if got in (BOT, Ordering3.EQ) else got


_STUBS = {  # stub -> the one rule it breaks
    _NoncedParams: "gen", _AlternatingEnc: "enc", _ReversedEncMany: "enc", _TailBlindDec: "dec",
    _StrictComp: "junk", _ListsAreBytes: "bytes-like", _ReversedCompMany: "comp_many",
    InvertedComp: "honest-order",
}


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("stub", _STUBS)
def test_a_stub_that_breaks_one_rule_fails_that_rule_alone(stub, rule):
    try:
        _search(
            lambda ell, coins: stub(ell, len(coins)), rule, max_examples=10,
            phases=[Phase.generate], database=None, report_multiple_bugs=False,
        )
    except (AssertionError, ValueError, pytest.fail.Exception):  # ValueError: _StrictComp's
        failed = True
    else:
        failed = False
    assert failed == (rule == _STUBS[stub])
