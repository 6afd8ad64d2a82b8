"""Batched and shared paths return exactly what the per-item calls return.

``tag_many``, ``evaluate_many``, the per-bucket batches of
``estimate_bucket_probs``, and the forked children that
``core._tally_shared`` shares the estimator's buckets, the trial runners'
trials and the correctness checkers' pairs with, are optimisations only,
as are the bounded tag, plaintext and verdict memos: every property here
compares a batch with the per-item loop it replaces, or a memoized key
with a fresh one.  That ``enc_many`` and ``comp_many`` equal per-item
``enc`` and ``comp`` is a rule of the ``OreScheme`` contract, tested in
test_contract.py; the memo state machine checks it again across memo
clears.
"""

import contextlib
import dataclasses
import functools
import gc
import hashlib
import os
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from orelearn import core, harness, opf, reident, strengthen
from orelearn.core import (
    BOT,
    MUTATION_CLASSES,
    Ordering3,
    check_strong_correctness,
    check_weak_correctness,
    comp_ciph,
    encode_blob,
    mutate_ciphertext,
)
from orelearn.encthresh import ComparatorHypothesis, EncThreshConcept, Example, pac_learn
from orelearn.opf import PLAIN_MEMO_MAX, TAG_MEMO_MAX, OpfOre, forge_spliced_ciphertext
from orelearn.reident import ReidentState, draw_buckets, estimate_bucket_probs, gen_ex
from orelearn.strengthen import STRONG_VERSION, StrengthenedOre
from test_contract import SCHEMES, STRENGTHENED, InvertedComp, build_scheme, forged


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
    scheme = build_scheme("opf", ell)
    batch_sk = _fresh_key(scheme, coins).sk
    for m in ms[:memoized]:
        scheme.tag(batch_sk, m)
    item_sk = _fresh_key(scheme, coins).sk
    expected = [scheme.tag(item_sk, m) for m in ms]
    assert scheme.tag_many(batch_sk, ms) == expected
    assert scheme.tag_many(_fresh_key(scheme, coins).sk, iter(ms)) == expected


def _reference_tag(sk, ell: int, m: int) -> int:
    """The descent as the ``opf`` module docstring states it."""
    tlo, w = 0, 1 << (3 * ell)
    for d in range(ell):
        q = w // 4
        left = q + sk.split_fraction(d, m >> (ell - d)) % (w - 2 * q)
        if (m >> (ell - 1 - d)) & 1:
            tlo, w = tlo + left, w - left
        else:
            w = left
    return tlo


@settings(max_examples=150, deadline=None)
@given(_batches(), _COINS)
def test_opf_tag_many_equals_the_reference_descent(batch, coins):
    ell, ms, memoized = batch
    scheme = build_scheme("opf", ell)
    sk = _fresh_key(scheme, coins).sk
    for m in ms[:memoized]:
        scheme.tag(sk, m)
    assert scheme.tag_many(sk, ms) == [_reference_tag(sk, ell, m) for m in ms]


def test_tag_many_keeps_the_tag_memo_bounded():
    scheme = build_scheme("opf", 19)
    sk = _fresh_key(scheme, bytes(32)).sk
    ms = list(range(TAG_MEMO_MAX + 5))
    tags = scheme.tag_many(sk, ms)
    assert len(sk._tags) <= TAG_MEMO_MAX + 1
    item_sk = _fresh_key(scheme, bytes(32)).sk
    assert [tags[m] for m in (0, 1, 1 << 17, len(ms) - 1)] == [
        scheme.tag(item_sk, m) for m in (0, 1, 1 << 17, len(ms) - 1)
    ]


def test_tag_many_rejects_a_message_outside_the_domain():
    scheme = build_scheme("opf", 8)
    with pytest.raises(ValueError):
        scheme.tag_many(_fresh_key(scheme, bytes(32)).sk, [3, 256])


# -- comparator batches ----------------------------------------------------------

_ANCHORS = ("honest", "mutated", "forged", "garbage")
_EXAMPLES = ("honest", "bitflip", "truncate", "random", "foreign")


@pytest.mark.parametrize("kind", SCHEMES)
@settings(max_examples=40, deadline=None)
@given(
    ell=st.integers(2, 20),
    anchor_kind=st.sampled_from(_ANCHORS),
    kinds=st.lists(st.sampled_from(_EXAMPLES), max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_many_equals_per_item_evaluate(kind, ell, anchor_kind, kinds, seed):
    scheme = build_scheme(kind, ell)
    rng = np.random.default_rng(seed)
    key, foreign = scheme.gen(rng), scheme.gen(rng)
    top = scheme.domain_size

    anchor = scheme.enc(key.sk, int(rng.integers(0, top)))
    if anchor_kind == "mutated":
        anchor = mutate_ciphertext(anchor, "bitflip", rng)
    elif anchor_kind == "forged":
        anchor = forged(scheme, key.sk, (1 << ell) - 1, 0)
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
    scheme = build_scheme("escrow", 8)
    key = scheme.gen(rng)
    cts = scheme.enc_many(key.sk, [1, 2, 3])
    assert scheme.comp_many(key.params, cts, b"\x02\x08junk") == [BOT] * 3
    assert scheme.comp_many(key.params, cts, forged(scheme, key.sk, 255, 0)) == [BOT] * 3


def test_comp_many_verifies_the_anchor_once_and_repeats_through_the_memo(rng, monkeypatch):
    # the signature certifier's verdict memo; an escrow key keeps none (its
    # repeats reach the base key's plaintext memo, counted by
    # test_strengthen.py::test_strong_checker_fully_checks_each_honest_ciphertext_once)
    scheme = build_scheme("signature", 8)
    key = scheme.gen(rng)
    ct, anchor = scheme.enc_many(key.sk, [5, 9])
    expected = [scheme.comp(key.params, ct, anchor)] * 4
    vk_type = type(key.params.cert_vk)
    checks, memo_lookups = [], []
    verify, memo = vk_type.verify, StrengthenedOre._verify
    monkeypatch.setattr(vk_type, "verify", lambda vk, *a: checks.append(a) or verify(vk, *a))
    monkeypatch.setattr(StrengthenedOre, "_verify", lambda *a: memo_lookups.append(a) or memo(*a))
    key.params.cert_vk.verdicts.clear()
    assert scheme.comp_many(key.params, [ct] * 4, anchor) == expected
    assert len(memo_lookups) == 5  # each of the 4 ciphertexts, and the anchor once
    assert len(checks) == 2  # ct once, then the anchor once; the rest are memo hits


@pytest.mark.parametrize("certifier", STRENGTHENED)
def test_verdict_memo_is_keyed_by_the_verify_key(certifier, rng):
    scheme = build_scheme(certifier, 8)
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
    scheme = build_scheme("signature", 8)
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


@pytest.mark.parametrize("certifier", STRENGTHENED)
def test_verdicts_are_unchanged_across_verdict_memo_clears(certifier, rng, monkeypatch):
    # honest, mutated and spliced ciphertexts under one key; with the memo
    # bound shrunk to 3 it is cleared every few verifications
    scheme = build_scheme(certifier)
    coins = bytes(rng.bytes(32))
    key = scheme.gen_from_coins(coins)
    honest = scheme.enc_many(key.sk, [3, 40, 41, 90, 128, 200, 254, 255])
    mutated = [
        mutate_ciphertext(ct, kind, rng)
        for ct, kind in zip(honest, ("bitflip", "bitflip", "truncate", "random"))
    ]
    spliced = [forged(scheme, key.sk, *pair) for pair in ((255, 0), (7, 100), (100, 7))]
    cts = honest + mutated + spliced

    def answers(key):
        return (
            [scheme.dec(key.sk, ct) for ct in cts],
            [scheme.comp(key.params, c0, c1) for c0 in cts for c1 in cts],
            [scheme.comp_many(key.params, cts, c1) for c1 in cts],
        )

    expected = answers(scheme.gen_from_coins(coins))
    sizes = []
    verify = StrengthenedOre._verify

    def tracked(self, cert_vk, *fields):
        # an escrow verdict is a base dec, answered by the plaintext memo
        ok = verify(self, cert_vk, *fields)
        memo = cert_vk._base_sk._plains if cert_vk.verdicts is None else cert_vk.verdicts
        sizes.append(len(memo))
        return ok

    monkeypatch.setattr(strengthen, "VERDICT_MEMO_MAX", 3)
    monkeypatch.setattr(opf, "PLAIN_MEMO_MAX", 3)
    monkeypatch.setattr(StrengthenedOre, "_verify", tracked)
    assert answers(scheme.gen_from_coins(coins)) == expected
    assert max(sizes) == 4
    assert sizes.count(1) > 1  # the memo was cleared, and refilled, more than once


def test_verdict_memo_dies_with_its_key(rng):
    # an escrow verify key holds its base secret key and that key's tag memo;
    # verdicts memoized under a finished key must not keep either alive
    scheme = build_scheme("escrow", 16)
    base_keys = []
    for _ in range(8):
        key = scheme.gen(rng)
        cts = scheme.enc_many(key.sk, rng.integers(0, scheme.domain_size, size=300).tolist())
        scheme.comp_many(key.params, cts, cts[0])
        base_keys.append(weakref.ref(key.sk.base_sk))
        del key, cts
    gc.collect()
    assert [ref for ref in base_keys if ref() is not None] == []


@pytest.mark.parametrize("certifier", STRENGTHENED)
def test_plaintext_memo_dies_with_its_key(certifier, rng):
    # the memo is referred to by its key alone and holds only bytes and
    # answers, so a finished key frees it
    scheme = build_scheme(certifier, 16)
    base_keys = []
    for _ in range(8):
        key = scheme.gen(rng)
        cts = scheme.enc_many(key.sk, rng.integers(0, scheme.domain_size, size=300).tolist())
        for ct in cts[:100]:
            scheme.dec(key.sk, ct)
        scheme.comp_many(key.params, cts, cts[0])
        base_sk = key.sk.base_sk
        assert base_sk._plains and gc.get_referrers(base_sk._plains) == [base_sk]
        base_keys.append(weakref.ref(base_sk))
        del key, cts, base_sk
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
    for lo, hi in zip(bounds, bounds[1:]):
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
def _processes(workers: int):
    """Let the shared fork helper split its items among ``workers`` processes;
    yields the list that records each fork it makes."""
    forks, fork = [], os.fork
    with mock.patch.object(core, "_cpus", lambda: workers), mock.patch.object(
        os, "fork", lambda: forks.append(1) or fork()
    ):
        yield forks


def _forks(workers: int, items: int) -> int:
    """How many children ``_tally_shared`` makes for ``items`` items."""
    return max(1, min(workers, items)) - 1


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
    scheme = build_scheme(kind, ell)

    def run(estimator, workers=1):
        with mock.patch.object(reident, "ESTIMATE_BATCH", batch):
            with _processes(workers) as forks:
                rng = np.random.default_rng(seed)
                state, sample = gen_ex(scheme, n, rng)
                est = estimator(state, pac_learn(scheme, sample), rng)
        assert len(forks) == min(workers, _live_buckets(state)) - 1
        return est, rng.integers(0, 2**63)  # and where the stream was left

    def batched(state, hypothesis, rng):
        return estimate_bucket_probs(state, hypothesis, 0.45, 0.01, rng, k_cap=k_cap)[0]

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
    scheme = build_scheme("escrow", 16)
    state, _ = gen_ex(scheme, 6, rng)
    hypothesis = _FailsInBucket(state, bucket, failure)
    with _processes(2) as forks, pytest.raises(raised, match=match):
        estimate_bucket_probs(state, hypothesis, 0.45, 0.01, rng, k_cap=40)
    assert forks == [1]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_estimator_shares_a_few_draws(rng):
    # 4 buckets of 5 draws: 20 draws in all are shared with a second process
    scheme = build_scheme("escrow", 16)
    state, sample = gen_ex(scheme, 3, rng)
    hypothesis = pac_learn(scheme, sample)
    seed = int(rng.integers(0, 2**63))
    assert _live_buckets(state) >= 2

    def estimate(workers):
        stream = np.random.default_rng(seed)
        with _processes(workers) as forks:
            est = estimate_bucket_probs(state, hypothesis, 0.45, 0.01, stream, k_cap=5)[0]
        return forks, est, stream.integers(0, 2**63)

    serial, shared = estimate(1), estimate(2)
    assert serial[0] == [] and shared[0] == [1]
    assert shared[1:] == serial[1:]


def _forbidden_fork():
    raise AssertionError("the estimator forked")


@pytest.mark.parametrize("reason", ["thread", "one cpu"])
def test_estimator_stays_serial(reason, rng):
    scheme = build_scheme("escrow", 16)
    state, sample = gen_ex(scheme, 6, rng)
    hypothesis = pac_learn(scheme, sample)
    seed = int(rng.integers(0, 2**63))

    def estimate():
        stream = np.random.default_rng(seed)
        est = estimate_bucket_probs(state, hypothesis, 0.45, 0.01, stream, k_cap=40)[0]
        return est, stream.integers(0, 2**63)

    expected = estimate()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if reason == "thread":
        thread.start()
    try:
        with _processes(1 if reason == "one cpu" else 2):
            with mock.patch.object(os, "fork", _forbidden_fork):
                assert estimate() == expected
    finally:
        stop.set()
        if reason == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()


# -- the trial runners ----------------------------------------------------------------

# each runner whose trials are shared, at a size that keeps a trial in milliseconds
_TRIAL_RUNNERS = {
    "sq-exact": {"experiment": "sq", "ell": 12},
    "sq-jitter": {"experiment": "sq", "ell": 12, "mode": "jitter"},
    "sq-tiny": {"experiment": "sq", "ell": 10, "keyspace": "tiny"},
    "pac-all": {"experiment": "pac", "ell": 16, "dist": "all"},
    "validsig-learn": {"experiment": "validsig", "mode": "learn", "ell": 64},
    "validsig-trace": {"experiment": "validsig", "mode": "trace", "ell": 64, "n": 8},
    "validsig-forge": {"experiment": "validsig", "mode": "forge", "ell": 64, "n": 8},
}


def _report_bytes(config):
    report = harness.run(config)
    return repr(report.rows), repr(report.aggregates), report.passed, report.csv_trials(), report.csv_summary()


@pytest.mark.parametrize("trials", [0, 1, 2, 5])
@pytest.mark.parametrize("runner", sorted(_TRIAL_RUNNERS))
def test_trial_runners_give_the_serial_report_on_every_process_count(runner, trials, monkeypatch):
    # a tiny keyspace of one coin byte keeps the exhaustive search to 256 keys
    monkeypatch.setitem(harness._KEYSPACES, "tiny", 1)
    config = harness.ExperimentConfig.from_dict({**_TRIAL_RUNNERS[runner], "trials": trials, "seed": 5})
    items = trials * (len(harness.DISTRIBUTION_FAMILIES) if runner == "pac-all" else 1)
    reports = []
    for workers in (1, 2, 3):
        with _processes(workers) as forks:
            reports.append(_report_bytes(config))
        assert len(forks) == _forks(workers, items)
    assert reports[1] == reports[0] and reports[2] == reports[0]
    if trials == 0:  # a rate over no trials, and no gate
        assert reports[0][2] is None
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


class _TrialError(Exception):
    pass


def test_a_failing_trial_raises_in_the_caller_and_leaves_no_child(monkeypatch):
    derive = harness.derive_trial_rng

    def failing(seed, trial, label=b""):
        if trial == 1:  # the second of two trials: the child's share
            raise _TrialError(f"trial {trial}")
        return derive(seed, trial, label)

    monkeypatch.setattr(harness, "derive_trial_rng", failing)
    config = harness.ExperimentConfig.from_dict({"experiment": "sq", "ell": 12, "trials": 2})
    with _processes(2) as forks, pytest.raises(_TrialError, match="trial 1"):
        harness.run(config)
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- the correctness checkers ---------------------------------------------------------


_CHECKED = {  # kind -> scheme; "opf" also gets the spliced witness pair
    **{kind: build_scheme(kind) for kind in SCHEMES},
    "inverted": InvertedComp(ell=8),
}


def _spliced_witness(scheme, key):
    """The ``correctness`` runner's witness: a tag of hi over a payload of lo,
    against an honest encryption between them."""
    lo = scheme.domain_size // 8
    hi = scheme.domain_size - 1 - lo
    spliced = forge_spliced_ciphertext(scheme, key.sk, tag_of=hi, payload_of=lo)
    return spliced, scheme.enc(key.sk, (lo + hi) // 2)


def _serial_strong_check(scheme, key, trials, rng, extra_pairs):
    """The strong checker as one serial loop whose sampler encrypts each fuzz
    ciphertext and then draws its mutation for the bytes it got: the
    reference for the checker that draws every sample before it builds."""

    def mutated(ct, kind):
        if not ct and kind in ("bitflip", "truncate"):
            return ct
        if kind == "bitflip":
            pos = int(rng.integers(0, len(ct) * 8))
            b = bytearray(ct)
            b[pos // 8] ^= 1 << (pos % 8)
            return bytes(b)
        if kind == "truncate":
            return ct[: int(rng.integers(0, len(ct)))]
        return bytes(rng.bytes(int(rng.integers(1, len(ct) + 16))))

    def sample():
        cls = MUTATION_CLASSES[int(rng.integers(0, 4))]
        ct = scheme.enc(key.sk, int(rng.integers(0, scheme.domain_size)))
        return (ct if cls == "valid" else mutated(ct, cls)), cls

    pairs = [(c0, c1, "witness") for c0, c1 in extra_pairs]
    for _ in range(trials):
        (c0, cls0), (c1, cls1) = sample(), sample()
        pairs.append((c0, c1, f"{cls0}+{cls1}"))
    report = core.CheckReport(checked=len(pairs))
    for c0, c1, cls in pairs:
        pub, ref = scheme.comp(key.params, c0, c1), comp_ciph(scheme, key.sk, c0, c1)
        if pub is not ref:
            report.add_failure({"class": cls, "comp": str(pub), "comp_ciph": str(ref)}, cls)
    return report


def _sweeps(kind: str, pairs: int, workers: int):
    """Both checkers' reports over ``pairs`` pairs (the strong one plus the
    witness for opf) with ``workers`` processes, and a draw from where the
    strong sampler left its rng; the strong report and that draw are checked
    against the serial reference's."""
    scheme = _CHECKED[kind]
    key = _fresh_key(scheme, bytes(range(32)))
    extra = [_spliced_witness(scheme, key)] if kind == "opf" else []
    rng = np.random.default_rng(pairs)
    with _processes(workers) as forks:
        weak = check_weak_correctness(scheme, [(i % 5, 3 * i % 7) for i in range(pairs)], key)
        strong = check_strong_correctness(scheme, key, pairs, rng, extra_pairs=extra)
    assert len(forks) == _forks(workers, pairs) + _forks(workers, pairs + len(extra))
    ref_rng = np.random.default_rng(pairs)
    ref = _serial_strong_check(scheme, _fresh_key(scheme, bytes(range(32))), pairs, ref_rng, extra)
    left = rng.integers(0, 2**63)
    assert _report(strong) == _report(ref) and left == ref_rng.integers(0, 2**63)
    return weak, strong, left


def _report(report: core.CheckReport):
    return report.checked, report.failures, list(report.counts_by_class.items())


@pytest.mark.parametrize("pairs", [0, 1, 2, 40, 300])
@pytest.mark.parametrize("kind", sorted(_CHECKED))
def test_correctness_checkers_give_the_serial_report_on_every_process_count(kind, pairs):
    weak, strong, left = _sweeps(kind, pairs, 1)
    assert weak.checked == pairs and strong.checked == pairs + (kind == "opf")
    if kind in ("escrow", "signature"):
        assert weak.passed and strong.passed
    if kind == "opf":
        assert strong.failures[0]["class"] == "witness"
    if kind == "inverted":
        assert len(weak.failures) == pairs
        if pairs > 2:  # both kinds of refusal reach the report
            assert {type(f["got"]) for f in weak.failures} == {core.Bot, Ordering3}
    for workers in (2, 3):
        shared_weak, shared_strong, shared_left = _sweeps(kind, pairs, workers)
        assert _report(shared_weak) == _report(weak)
        assert _report(shared_strong) == _report(strong)
        assert shared_left == left
        # BOT and the Ordering3 members keep their identity through a child's pickle
        for got, want in zip(shared_weak.failures, weak.failures):
            assert got["got"] is want["got"] and got["want"] is want["want"]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


class _CompError(Exception):
    pass


@pytest.mark.parametrize("check", ["weak", "strong"])
def test_a_failing_comparison_in_a_child_raises_in_the_caller(check, monkeypatch):
    scheme = OpfOre(ell=8)
    key = _fresh_key(scheme, bytes(32))
    comp, caller = scheme.comp, os.getpid()

    def comp_in_caller(*args):
        if os.getpid() != caller:
            raise _CompError("comp in a child")
        return comp(*args)

    monkeypatch.setattr(scheme, "comp", comp_in_caller)
    with _processes(2) as forks, pytest.raises(_CompError, match="in a child"):
        if check == "weak":
            check_weak_correctness(scheme, [(1, 2), (3, 4)], key)
        else:
            check_strong_correctness(scheme, key, 2, np.random.default_rng(0))
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("trials", [0, 1, 2, 5])
@pytest.mark.parametrize("scheme", ["escrow", "signature", "opf"])
def test_correctness_runner_gives_the_serial_report_on_every_process_count(scheme, trials):
    raw = {"experiment": "correctness", "ell": 16, "trials": trials, "seed": 5}
    raw.update({"scheme": "opf"} if scheme == "opf" else {"certifier": scheme})
    config = harness.ExperimentConfig.from_dict(raw)
    reports = []
    for workers in (1, 2, 3):
        with _processes(workers) as forks:
            reports.append(_report_bytes(config))
        # the weak sweep's pairs, then the strong sweep's, with the opf witness
        assert len(forks) == _forks(workers, trials) + _forks(workers, trials + (scheme == "opf"))
    assert reports[1] == reports[0] and reports[2] == reports[0]
    if trials == 0:
        assert reports[0][2] is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- strong correctness across memo clears ---------------------------------------

_KEY_LABELS = [(name, i) for name in STRENGTHENED for i in range(2)]
_SHIPPED_BOUNDS = (TAG_MEMO_MAX, PLAIN_MEMO_MAX, strengthen.VERDICT_MEMO_MAX)


@contextlib.contextmanager
def _memo_bounds(tags: int, plains: int, verdicts: int):
    with mock.patch.object(opf, "TAG_MEMO_MAX", tags), mock.patch.object(
        opf, "PLAIN_MEMO_MAX", plains
    ), mock.patch.object(strengthen, "VERDICT_MEMO_MAX", verdicts):
        yield


class SchemeAgainstMemoFreeTwin(RuleBasedStateMachine):
    """Two keys under each certifier, with all three memo bounds shrunk to 3.

    All four keys share one pool of ciphertexts: honest encryptions under
    each key, their mutations, spliced base ciphertexts under a zero, empty
    or transplanted certificate, and so cross-key ciphertexts for every
    key.  The long-lived keys' memos hit and are cleared every few calls;
    each answer must equal the memo-free twin's, a fresh key from the same
    coins asked once under the shipped bounds.  Comparison must also agree
    with decrypt-then-compare on every pair it is asked.
    """

    cts = Bundle("cts")

    def __init__(self):
        super().__init__()
        self._bounds = _memo_bounds(3, 3, 3)
        self._bounds.__enter__()

    def teardown(self):
        self._bounds.__exit__(None, None, None)

    @initialize(target=cts, ell=st.integers(1, 10), seed=st.binary(max_size=8), m=st.integers(0, 2**10))
    def build(self, ell, seed, m):
        self.ell = ell
        self.coins = [hashlib.blake2b(seed, key=bytes([i]), digest_size=32).digest() for i in range(2)]
        self.schemes = {name: build_scheme(name, ell) for name in STRENGTHENED}
        self.keys = {
            (name, i): self.schemes[name].gen_from_coins(self.coins[i]) for name, i in _KEY_LABELS
        }
        # one honest ciphertext under each key to start the pool
        return multiple(
            *(self.schemes[name].enc(key.sk, self._message(m)) for (name, _), key in self.keys.items())
        )

    def _twin(self, label, ask):
        """``ask(scheme, key)`` on a fresh key, under the shipped bounds."""
        with _memo_bounds(*_SHIPPED_BOUNDS):
            scheme = self.schemes[label[0]]
            return ask(scheme, scheme.gen_from_coins(self.coins[label[1]]))

    def _message(self, m: int) -> int:
        return m % (1 << self.ell)

    @rule(target=cts, label=st.sampled_from(_KEY_LABELS), m=st.integers(0, 2**10))
    def enc(self, label, m):
        m = self._message(m)
        ct = self.schemes[label[0]].enc(self.keys[label].sk, m)
        assert ct == self._twin(label, lambda s, k: s.enc(k.sk, m))
        return ct

    @rule(
        target=cts,
        label=st.sampled_from(_KEY_LABELS),
        ms=st.lists(st.integers(0, 2**10), max_size=8),
    )
    def enc_many(self, label, ms):
        ms = [self._message(m) for m in ms]
        scheme, sk = self.schemes[label[0]], self.keys[label].sk
        got = scheme.enc_many(sk, ms)
        assert got == [scheme.enc(sk, m) for m in ms]
        assert got == self._twin(label, lambda s, k: s.enc_many(k.sk, ms))
        return multiple(*got)

    @rule(target=cts, ct=cts, kind=st.sampled_from(MUTATION_CLASSES[1:]), seed=st.integers(0, 2**32))
    def mutate(self, ct, kind, seed):
        return mutate_ciphertext(ct, kind, np.random.default_rng(seed))

    @rule(
        target=cts,
        label=st.sampled_from(_KEY_LABELS),
        tag_of=st.integers(0, 2**10),
        payload_of=st.integers(0, 2**10),
        cert=st.sampled_from([b"", b"\x00" * 64]) | cts,
    )
    def splice(self, label, tag_of, payload_of, cert):
        # a spliced base ciphertext under a certificate field nobody issued
        # for it: empty, zero, another ciphertext's, or any pool bytes
        scheme = self.schemes[label[0]]
        base_ct = forge_spliced_ciphertext(
            scheme.base, self.keys[label].sk.base_sk, self._message(tag_of), self._message(payload_of)
        )
        parsed = scheme.parse(cert)
        if parsed is not None:
            cert = parsed[1]
        return bytes([STRONG_VERSION, self.ell]) + encode_blob(base_ct, cert)

    @rule(target=cts, ct=cts, donor=cts)
    def transplant(self, ct, donor):
        # one ciphertext's base ciphertext under another's certificate
        scheme = self.schemes["signature"]
        p, q = scheme.parse(ct), scheme.parse(donor)
        return ct if p is None or q is None else ct[:2] + encode_blob(p[0], q[1])

    @rule(label=st.sampled_from(_KEY_LABELS), ct=cts)
    def dec(self, label, ct):
        scheme, sk = self.schemes[label[0]], self.keys[label].sk
        got = scheme.dec(sk, ct)
        assert got is BOT or 0 <= got < (1 << self.ell)
        assert got == scheme.dec(sk, ct)
        assert got == self._twin(label, lambda s, k: s.dec(k.sk, ct))

    @rule(label=st.sampled_from(_KEY_LABELS), c0=cts, c1=cts)
    def comp(self, label, c0, c1):
        scheme, key = self.schemes[label[0]], self.keys[label]
        got = scheme.comp(key.params, c0, c1)
        assert got is comp_ciph(scheme, key.sk, c0, c1)
        assert got is self._twin(label, lambda s, k: s.comp(k.params, c0, c1))

    @rule(label=st.sampled_from(_KEY_LABELS), batch=st.lists(cts, max_size=6), c1=cts)
    def comp_many(self, label, batch, c1):
        scheme, key = self.schemes[label[0]], self.keys[label]
        got = scheme.comp_many(key.params, batch, c1)
        assert got == [scheme.comp(key.params, c0, c1) for c0 in batch]
        assert got == self._twin(label, lambda s, k: s.comp_many(k.params, batch, c1))

    @rule(labels=st.lists(st.sampled_from(_KEY_LABELS), min_size=1, unique=True))
    def clear_memos(self, labels):
        for label in labels:
            sk = self.keys[label].sk
            sk.base_sk._tags.clear()
            sk.base_sk._plains.clear()
            if sk.cert_vk.verdicts is not None:  # an escrow key keeps none
                sk.cert_vk.verdicts.clear()

    @rule(
        label=st.sampled_from(_KEY_LABELS),
        n=st.integers(1, 3),
        k_cap=st.integers(1, 4),
        anchor=cts,
        seed=st.integers(0, 2**32),
    )
    def estimate(self, label, n, k_cap, anchor, seed):
        # the bucket estimator on a tiny state of this key, shared with a
        # forked child whenever two of its buckets are live
        def estimates(scheme, key, estimator):
            rng = np.random.default_rng(seed)
            raw, order, bounds, well_spaced = draw_buckets(scheme.domain_size, n, rng)
            state = ReidentState(
                concept=EncThreshConcept(scheme, scheme.domain_size // 2, key),
                raw_messages=raw,
                bucket_bounds=bounds,
                sorted_to_raw=order,
                junk_example=None,
                well_spaced=well_spaced,
            )
            hypothesis = ComparatorHypothesis(scheme, key.params, anchor)
            return estimator(state, hypothesis, rng), rng.integers(0, 2**63), _live_buckets(state)

        def shared(state, hypothesis, rng):
            return estimate_bucket_probs(state, hypothesis, 0.45, 0.01, rng, k_cap)[0]

        def per_draw(state, hypothesis, rng):
            return _per_draw_estimate(state, hypothesis, k_cap, rng)

        with _processes(2) as forks:
            got = estimates(self.schemes[label[0]], self.keys[label], shared)
        assert len(forks) == min(2, got[2]) - 1
        assert got == self._twin(label, lambda s, k: estimates(s, k, per_draw))

    @invariant()
    def memos_stay_bounded(self):
        for key in self.keys.values():
            assert len(key.sk.base_sk._tags) <= opf.TAG_MEMO_MAX + 1
            assert len(key.sk.base_sk._plains) <= opf.PLAIN_MEMO_MAX + 1
            verdicts = key.sk.cert_vk.verdicts
            assert verdicts is None or len(verdicts) <= strengthen.VERDICT_MEMO_MAX + 1


SchemeAgainstMemoFreeTwin.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
test_scheme_against_memo_free_twin = SchemeAgainstMemoFreeTwin.TestCase
