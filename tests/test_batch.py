"""Batched paths return exactly what the per-item calls return.

``tag_many``/``enc_many``, ``comp_many``/``evaluate_many`` and the per-bucket
batches of ``estimate_bucket_probs``, and the forked children it shares its
buckets with, are optimisations only: every property here compares a batch
with the per-item loop it replaces.
"""

import contextlib
import dataclasses
import functools
import gc
import os
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orelearn import reident, strengthen
from orelearn.core import BOT, Ordering3, encode_blob, mutate_ciphertext
from orelearn.encthresh import ComparatorHypothesis, Example, pac_learn
from orelearn.opf import TAG_MEMO_MAX, OpfOre, forge_spliced_ciphertext
from orelearn.reident import estimate_bucket_probs, gen_ex
from orelearn.strengthen import (
    STRONG_VERSION,
    EscrowCertifier,
    SignatureCertifier,
    StrengthenedOre,
)

_CERTIFIERS = {"escrow": EscrowCertifier, "signature": SignatureCertifier}


@functools.lru_cache(maxsize=None)
def _scheme(kind: str, ell: int):
    base = OpfOre(ell=ell)
    return base if kind == "opf" else StrengthenedOre(base, _CERTIFIERS[kind]())


def _fresh_key(scheme, coins: bytes):
    # keys from the same coins are equal but share no memo, so a per-item
    # call on one cannot read what a batch call stored in the other
    return scheme.gen_from_coins(coins)


@st.composite
def _batches(draw):
    """(ell, messages, memoized): unsorted, with duplicates, possibly empty;
    ``memoized`` is a prefix length to tag per item before the batch."""
    ell = draw(st.integers(1, 64))
    base = draw(st.lists(st.integers(0, (1 << ell) - 1), max_size=24))
    ms = draw(st.permutations(base + base[: draw(st.integers(0, len(base)))]))
    return ell, ms, draw(st.integers(0, len(ms)))


_COINS = st.binary(min_size=32, max_size=32)


@settings(max_examples=150, deadline=None)
@given(_batches(), _COINS)
def test_opf_tag_many_equals_per_item_tag(batch, coins):
    ell, ms, memoized = batch
    scheme = _scheme("opf", ell)
    batch_sk = _fresh_key(scheme, coins).sk
    for m in ms[:memoized]:
        scheme.tag(batch_sk, m)
    item_sk = _fresh_key(scheme, coins).sk
    assert scheme.tag_many(batch_sk, ms) == [scheme.tag(item_sk, m) for m in ms]


@pytest.mark.parametrize("kind", ["opf", "escrow", "signature"])
@settings(max_examples=60, deadline=None)
@given(batch=_batches(), coins=_COINS)
def test_enc_many_equals_per_item_enc(kind, batch, coins):
    ell, ms, _ = batch
    scheme = _scheme(kind, ell)
    batch_key, item_key = _fresh_key(scheme, coins), _fresh_key(scheme, coins)
    assert scheme.enc_many(batch_key.sk, ms) == [scheme.enc(item_key.sk, m) for m in ms]


def test_tag_many_keeps_the_tag_memo_bounded():
    scheme = _scheme("opf", 19)
    sk = _fresh_key(scheme, bytes(32)).sk
    ms = list(range(TAG_MEMO_MAX + 5))
    tags = scheme.tag_many(sk, ms)
    assert len(sk._tags) <= TAG_MEMO_MAX + 1
    item_sk = _fresh_key(scheme, bytes(32)).sk
    assert [tags[m] for m in (0, 1, 1 << 17, len(ms) - 1)] == [
        scheme.tag(item_sk, m) for m in (0, 1, 1 << 17, len(ms) - 1)
    ]


def test_tag_many_rejects_a_message_outside_the_domain():
    scheme = _scheme("opf", 8)
    with pytest.raises(ValueError):
        scheme.tag_many(_fresh_key(scheme, bytes(32)).sk, [3, 256])


# -- comparator batches ----------------------------------------------------------

_ANCHORS = ("honest", "mutated", "forged", "garbage")
_EXAMPLES = ("honest", "bitflip", "truncate", "random", "foreign")


def _forged(scheme, key, ell):
    """A ciphertext that compares but does not decrypt: a spliced base
    ciphertext, wrapped without a valid certificate when strengthened."""
    top = (1 << ell) - 1
    if isinstance(scheme, OpfOre):
        return forge_spliced_ciphertext(scheme, key.sk, tag_of=top, payload_of=0)
    base_ct = forge_spliced_ciphertext(scheme.base, key.sk.base_sk, tag_of=top, payload_of=0)
    return bytes([STRONG_VERSION, ell]) + encode_blob(base_ct, b"\x00" * 64)


@pytest.mark.parametrize("kind", ["opf", "escrow", "signature"])
@settings(max_examples=40, deadline=None)
@given(
    ell=st.integers(2, 20),
    anchor_kind=st.sampled_from(_ANCHORS),
    kinds=st.lists(st.sampled_from(_EXAMPLES), max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_many_equals_per_item_evaluate(kind, ell, anchor_kind, kinds, seed):
    scheme = _scheme(kind, ell)
    rng = np.random.default_rng(seed)
    key, foreign = scheme.gen(rng), scheme.gen(rng)
    top = scheme.domain_size

    anchor = scheme.enc(key.sk, int(rng.integers(0, top)))
    if anchor_kind == "mutated":
        anchor = mutate_ciphertext(anchor, "bitflip", rng)
    elif anchor_kind == "forged":
        anchor = _forged(scheme, key, ell)
    elif anchor_kind == "garbage":
        anchor = bytes(rng.bytes(int(rng.integers(0, 40))))

    examples = []
    for k in kinds:
        m = int(rng.integers(0, top))
        if k == "foreign":
            examples.append(Example(foreign.params, scheme.enc(foreign.sk, m)))
            continue
        ct = scheme.enc(key.sk, m)
        examples.append(Example(key.params, ct if k == "honest" else mutate_ciphertext(ct, k, rng)))

    hyp = ComparatorHypothesis(scheme, key.params, anchor)
    assert hyp.evaluate_many(examples) == [hyp.evaluate(x) for x in examples]


def test_comp_many_refuses_everything_against_a_bad_anchor(rng):
    scheme = _scheme("escrow", 8)
    key = scheme.gen(rng)
    cts = scheme.enc_many(key.sk, [1, 2, 3])
    assert scheme.comp_many(key.params, cts, b"\x02\x08junk") == [BOT] * 3
    assert scheme.comp_many(key.params, cts, _forged(scheme, key, 8)) == [BOT] * 3


def test_comp_many_verifies_the_anchor_once_and_repeats_through_the_memo(rng, monkeypatch):
    scheme = _scheme("escrow", 8)
    key = scheme.gen(rng)
    ct, anchor = scheme.enc_many(key.sk, [5, 9])
    expected = [scheme.comp(key.params, ct, anchor)] * 4
    vk_type = type(key.params.cert_vk)
    checks, memo_lookups = [], []
    verify, memo = vk_type.verify, scheme._verify
    monkeypatch.setattr(vk_type, "verify", lambda vk, *a: checks.append(a) or verify(vk, *a))
    monkeypatch.setattr(scheme, "_verify", lambda *a: memo_lookups.append(a) or memo(*a))
    key.params.cert_vk.verdicts.clear()
    assert scheme.comp_many(key.params, [ct] * 4, anchor) == expected
    assert len(memo_lookups) == 5  # each of the 4 ciphertexts, and the anchor once
    assert len(checks) == 2  # ct once, then the anchor once; the rest are memo hits


@pytest.mark.parametrize("certifier", sorted(_CERTIFIERS))
def test_verdict_memo_is_keyed_by_the_verify_key(certifier, rng):
    scheme = _scheme(certifier, 8)
    key_a, key_b = scheme.gen(rng), scheme.gen(rng)
    ct, anchor = scheme.enc_many(key_a.sk, [5, 9])
    assert scheme.comp(key_a.params, ct, anchor) is Ordering3.LT  # both verdicts memoized
    # the same ciphertexts under another key's verify key must not hit them
    mixed = dataclasses.replace(key_a.params, cert_vk=key_b.params.cert_vk)
    assert scheme.comp(mixed, ct, anchor) is BOT
    assert scheme.comp_many(mixed, [ct, anchor, ct], anchor) == [BOT] * 3


@pytest.mark.parametrize("field", ["sigma", "base_params"])
def test_verdict_memo_is_keyed_by_every_statement_field(field, rng):
    # a signature verdict memoized under the honest (base params, sigma) must
    # not answer for the same cert_vk paired with another key's field
    scheme = _scheme("signature", 8)
    key_a, key_b = scheme.gen(rng), scheme.gen(rng)
    ct, anchor = scheme.enc_many(key_a.sk, [5, 9])
    assert scheme.dec(key_a.sk, ct) == 5
    assert scheme.comp(key_a.params, ct, anchor) is Ordering3.LT  # both verdicts memoized
    other = getattr(key_b.sk, field)
    sk = dataclasses.replace(key_a.sk, **{field: other})
    params = dataclasses.replace(key_a.params, **{field: other})
    assert scheme.dec(sk, ct) is BOT
    assert scheme.comp(params, ct, anchor) is BOT
    assert scheme.comp_many(params, [ct, anchor, ct], anchor) == [BOT] * 3


@pytest.mark.parametrize("certifier", sorted(_CERTIFIERS))
def test_verdicts_are_unchanged_across_verdict_memo_clears(certifier, rng, monkeypatch):
    # honest, mutated and spliced ciphertexts under one key; with the memo
    # bound shrunk to 3 it is cleared every few verifications
    scheme = StrengthenedOre(OpfOre(ell=8), _CERTIFIERS[certifier]())
    coins = bytes(rng.bytes(32))
    key = scheme.gen_from_coins(coins)
    honest = scheme.enc_many(key.sk, [3, 40, 41, 90, 128, 200, 254, 255])
    mutated = [
        mutate_ciphertext(ct, kind, rng)
        for ct, kind in zip(honest, ("bitflip", "bitflip", "truncate", "random"))
    ]
    spliced = [
        bytes([STRONG_VERSION, 8])
        + encode_blob(
            forge_spliced_ciphertext(scheme.base, key.sk.base_sk, tag_of, payload_of),
            b"\x00" * 64,
        )
        for tag_of, payload_of in ((255, 0), (7, 100), (100, 7))
    ]
    cts = honest + mutated + spliced

    def answers(key):
        return (
            [scheme.dec(key.sk, ct) for ct in cts],
            [scheme.comp(key.params, c0, c1) for c0 in cts for c1 in cts],
            [scheme.comp_many(key.params, cts, c1) for c1 in cts],
        )

    expected = answers(scheme.gen_from_coins(coins))
    sizes = []
    verify = scheme._verify

    def tracked(cert_vk, *fields):
        ok = verify(cert_vk, *fields)
        sizes.append(len(cert_vk.verdicts))
        return ok

    monkeypatch.setattr(strengthen, "VERDICT_MEMO_MAX", 3)
    monkeypatch.setattr(scheme, "_verify", tracked)
    assert answers(scheme.gen_from_coins(coins)) == expected
    assert max(sizes) == 4
    assert sizes.count(1) > 1  # the memo was cleared, and refilled, more than once


def test_verdict_memo_dies_with_its_key(rng):
    # an escrow verify key holds its base secret key and that key's tag memo;
    # verdicts memoized under a finished key must not keep either alive
    scheme = _scheme("escrow", 16)
    base_keys = []
    for _ in range(8):
        key = scheme.gen(rng)
        cts = scheme.enc_many(key.sk, rng.integers(0, scheme.domain_size, size=300).tolist())
        scheme.comp_many(key.params, cts, cts[0])
        base_keys.append(weakref.ref(key.sk.base_sk))
        del key, cts
    gc.collect()
    assert [ref for ref in base_keys if ref() is not None] == []


# -- the estimator ------------------------------------------------------------------


class _EvaluateOnly:
    """Exposes a hypothesis through ``evaluate`` alone, forcing the
    estimator's per-item fallback."""

    def __init__(self, hypothesis):
        self.evaluate = hypothesis.evaluate


def _per_draw_estimate(state, hypothesis, k, rng):
    """The estimator as a plain loop: one encryption and one evaluation per draw."""
    scheme, key = state.concept.scheme, state.concept.key
    bounds = state.bucket_bounds
    est = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if hi <= lo:
            est.append(est[-1] if est else 0.0)
            continue
        draws = rng.integers(lo, hi, size=k)
        hits = sum(
            hypothesis.evaluate(Example(key.params, scheme.enc(key.sk, int(m)))) for m in draws
        )
        est.append(hits / k)
    return est


def _live_buckets(state) -> int:
    return int(np.count_nonzero(np.diff(state.bucket_bounds) > 0))


@contextlib.contextmanager
def _estimator_processes(workers: int, fork_min_draws: int = 0):
    """Let the estimator share its buckets among ``workers`` processes; yields
    the list that records each fork it makes."""
    forks, fork = [], os.fork
    with mock.patch.object(reident, "_cpus", lambda: workers), mock.patch.object(
        reident, "FORK_MIN_DRAWS", fork_min_draws
    ), mock.patch.object(os, "fork", lambda: forks.append(1) or fork()):
        yield forks


@pytest.mark.filterwarnings("ignore:n.2")
@pytest.mark.parametrize(
    "kind, ell",
    # ell 3 leaves empty buckets in most draws: they take no share and no draws
    [("opf", 16), ("escrow", 16), ("escrow", 3)],
    ids=["opf", "escrow", "escrow-ell3"],
)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    k_cap=st.integers(1, 40),
    batch=st.sampled_from([1, 3, 7, reident.ESTIMATE_BATCH]),
)
def test_estimator_batches_match_the_per_item_fallback(kind, ell, seed, n, k_cap, batch):
    scheme = _scheme(kind, ell)

    def run(estimator, workers=1):
        with mock.patch.object(reident, "ESTIMATE_BATCH", batch):
            with _estimator_processes(workers) as forks:
                rng = np.random.default_rng(seed)
                state, sample = gen_ex(scheme, n, rng)
                est = estimator(state, pac_learn(scheme, sample), rng)
        assert len(forks) == min(workers, _live_buckets(state)) - 1
        return est, rng.integers(0, 2**63)  # and where the stream was left

    def batched(state, hypothesis, rng):
        return estimate_bucket_probs(state, hypothesis, 0.45, 0.01, rng, k_cap=k_cap)[0].tolist()

    expected = run(lambda state, h, rng: _per_draw_estimate(state, h, k_cap, rng))
    for workers in range(1, min(3, os.cpu_count() + 1) + 1):  # never more children than CPUs
        assert run(batched, workers) == expected
        assert run(lambda state, h, rng: batched(state, _EvaluateOnly(h), rng), workers) == expected


class _BucketError(Exception):
    pass


class _FailsInBucket:
    """A hypothesis that calls ``failure`` on every example drawn from one
    bucket and rejects every other example."""

    def __init__(self, state, bucket: int, failure):
        concept = state.concept
        self.dec = functools.partial(concept.scheme.dec, concept.key.sk)
        self.inner = state.bucket_bounds[1:-1]
        self.bucket, self.failure = bucket, failure

    def evaluate(self, x):
        if int(np.searchsorted(self.inner, self.dec(x.ct), side="right")) == self.bucket:
            self.failure()
        return 0


def _unpicklable():
    class Local(Exception):  # pickled by reference, so it cannot be rebuilt
        pass

    raise Local("in a child")


def _exit_in_child(caller=os.getpid()):
    if os.getpid() != caller:
        os._exit(7)


def _raise(error):
    raise error


@pytest.mark.parametrize(
    "bucket, failure, raised, match",
    [
        (0, lambda: _raise(_BucketError("caller")), _BucketError, "caller"),
        (1, lambda: _raise(_BucketError("child")), _BucketError, "child"),
        (1, _unpicklable, RuntimeError, "Local"),
        (1, _exit_in_child, RuntimeError, "without a report.*exit code 7"),
    ],
    ids=["caller", "child", "child-unpicklable", "child-dies"],
)
def test_a_failing_bucket_raises_in_the_caller_and_leaves_no_child(bucket, failure, raised, match, rng):
    scheme = _scheme("escrow", 16)
    state, _ = gen_ex(scheme, 6, rng)
    hypothesis = _FailsInBucket(state, bucket, failure)
    with _estimator_processes(2) as forks, pytest.raises(raised, match=match):
        estimate_bucket_probs(state, hypothesis, 0.45, 0.01, rng, k_cap=40)
    assert forks == [1]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _forbidden_fork():
    raise AssertionError("the estimator forked")


@pytest.mark.parametrize("reason", ["thread", "floor", "one cpu"])
def test_estimator_stays_serial(reason, rng):
    scheme = _scheme("escrow", 16)
    state, sample = gen_ex(scheme, 6, rng)
    hypothesis = pac_learn(scheme, sample)
    seed = int(rng.integers(0, 2**63))

    def estimate():
        stream = np.random.default_rng(seed)
        est = estimate_bucket_probs(state, hypothesis, 0.45, 0.01, stream, k_cap=40)[0]
        return est.tolist(), stream.integers(0, 2**63)

    expected = estimate()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if reason == "thread":
        thread.start()
    try:
        floor = 7 * 40 + 1 if reason == "floor" else 0  # one more than the 7 buckets' draws
        with _estimator_processes(1 if reason == "one cpu" else 2, floor):
            with mock.patch.object(os, "fork", _forbidden_fork):
                assert estimate() == expected
    finally:
        stop.set()
        if reason == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
