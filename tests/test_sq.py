"""Statistical-query oracle, the threshold learner, key recovery."""

import collections
import hashlib
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from orelearn.encthresh import (
    AllZeroesHypothesis,
    ComparatorHypothesis,
    DecryptThresholdHypothesis,
    EncThreshConcept,
    Example,
    PointMassDistribution,
    random_concept,
    random_point_mass,
)
from orelearn import sq
from orelearn.core import BOT, MUTATION_CLASSES, mutate_ciphertext
from orelearn.harness import ExperimentConfig, run
from orelearn.sq import (
    KeyRecoveryError,
    OracleKeyRecovery,
    StatOracle,
    TinyKeyspaceRecovery,
    ViewQuery,
    bit_of,
    sq_learn,
    tolerance_floor,
)
from orelearn.strengthen import StrengthenedOre
from test_contract import build_scheme


# -- oracle ---------------------------------------------------------------------


def test_oracle_exact_label_query_on_all_positive_mass(rng):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=scheme.domain_size)  # all positive
    dist = PointMassDistribution([concept.encrypt_example(5)], [1.0])
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    assert oracle.query(lambda x, b: b == 1, 0.05) == 1.0


def test_oracle_constant_zero_query(rng):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=64)
    dist = random_point_mass(concept, 32, rng)
    for mode in ("exact", "jitter"):
        oracle = StatOracle(concept, dist, alpha=0.05, mode=mode, rng=rng)
        assert oracle.query(lambda x, b: False, 0.05) <= 0.05


def test_oracle_jitter_within_tolerance(rng):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=512)
    dist = random_point_mass(concept, 64, rng)
    exact = StatOracle(concept, dist, alpha=0.05, mode="exact")
    jitter = StatOracle(concept, dist, alpha=0.05, mode="jitter", rng=rng)
    psi = lambda x, b: b == 1
    truth = exact.query(psi, 0.02)
    for _ in range(500):
        assert abs(jitter.query(psi, 0.02) - truth) <= 0.02


def test_oracle_rejects_tolerance_below_floor(rng):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=64)
    dist = random_point_mass(concept, 8, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    with pytest.raises(ValueError):
        oracle.query(lambda x, b: b == 1, oracle.tau_floor / 2)


def test_oracle_counts_queries(rng):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=64)
    dist = random_point_mass(concept, 8, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    for k in range(1, 6):
        oracle.query(lambda x, b: b == 1, 0.05)
        assert oracle.query_count == k


def test_tolerance_floor_formula():
    assert tolerance_floor(1000, 0.05) == 1.0 / (64 * 1000 * 20)


@pytest.mark.parametrize("k_bits, alpha", [(3200, 1e-306), (1, 5e-324)])
def test_tolerance_floor_raises_rather_than_reach_zero(k_bits, alpha):
    # 1 / inf would be a floor of 0.0, which admits every tolerance
    with pytest.raises(OverflowError):
        tolerance_floor(k_bits, alpha)


def test_bit_of_msb_first():
    assert [bit_of(b"\x80", i) for i in range(8)] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bit_of(b"\x00\x01", 15) == 1


# -- grouped (view) queries -------------------------------------------------------


def _mixed_support(scheme, seed, weights, coin=None):
    """Honest, mutated and foreign-params examples, one per weight; with a
    ``coin``, the concept's key comes from that coin string instead of the rng."""
    rng = np.random.default_rng(seed)
    t = int(rng.integers(0, scheme.domain_size + 1))
    if coin is None:
        concept = random_concept(scheme, rng, t=t)
    else:
        key = scheme.gen_from_coins(coin.to_bytes(scheme.coin_len, "big"))
        concept = EncThreshConcept(scheme=scheme, t=t, key=key)
    foreign = scheme.gen(rng)
    points = []
    for _ in weights:
        m = int(rng.integers(0, scheme.domain_size))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            points.append(Example(foreign.params, scheme.enc(foreign.sk, m)))
        else:
            x = concept.encrypt_example(m)
            if kind == 1:
                mutation = MUTATION_CLASSES[1 + int(rng.integers(0, 3))]
                x = Example(x.params, mutate_ciphertext(x.ct, mutation, rng))
            points.append(x)
    return concept, PointMassDistribution(points, weights)


def _views(concept):
    key = concept.key

    def decrypted(x, b):
        return concept.scheme.dec(key.sk, x.ct) if x.params == key.params else BOT

    return [
        sq._params_and_label,
        lambda x, b: b,
        lambda x, b: 1 - b,  # the same values as the label view, mapped apart
        lambda x, b: len(x.ct) % 5,
        lambda x, b: (x.ct[-1] & 3 if x.ct else None, b),  # truncation may empty a ciphertext
        decrypted,
    ]


def _salted_test(salt, cut):
    """A pure verdict per view value: a hash of its repr, salted and keyed
    by the cut, below that cut; each value passes with odds cut/16."""

    def test(v):
        digest = hashlib.blake2b(repr(v).encode() + bytes([cut]), key=salt).digest()
        return digest[0] % 16 < cut

    return test


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=24),
    queries=st.lists(
        st.tuples(st.integers(0, 5), st.binary(max_size=4), st.integers(0, 16)),
        min_size=1,
        max_size=12,
    ),
)
def test_view_query_equals_the_per_point_predicate(seed, weights, queries):
    scheme = build_scheme("escrow", 8)
    concept, dist = _mixed_support(scheme, seed, weights)
    views = _views(concept)
    for mode in ("exact", "jitter"):
        grouped = StatOracle(concept, dist, 0.05, mode=mode, rng=np.random.default_rng(seed))
        plain = StatOracle(concept, dist, 0.05, mode=mode, rng=np.random.default_rng(seed))
        for view_index, salt, cut in queries:  # repeats go through both memos
            view, test = views[view_index], _salted_test(salt, cut)
            answer = grouped.query(ViewQuery(view, test), 0.02)
            assert answer == plain.query(lambda x, b: test(view(x, b)), 0.02)
        assert grouped.query_count == plain.query_count == len(queries)


def test_view_answers_are_memoized_per_view(rng):
    # two views with the same values and the same passing set have their own answers
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=512)
    oracle = StatOracle(concept, random_point_mass(concept, 64, rng), 0.05)
    label = oracle.query(ViewQuery(lambda x, b: b, lambda v: v == 1), 0.05)
    flipped = oracle.query(ViewQuery(lambda x, b: 1 - b, lambda v: v == 1), 0.05)
    assert label == oracle.query(lambda x, b: b == 1, 0.05)
    assert flipped == oracle.query(lambda x, b: b == 0, 0.05)
    assert 0 < label < 1 and label + flipped == pytest.approx(1.0)


def test_view_query_is_its_per_point_predicate():
    psi = ViewQuery(lambda x, b: x + b, lambda v: v > 3)
    assert psi(2, 2) is True and psi(1, 2) is False


def test_learner_views_each_point_once_and_decrypts_it_once(rng, monkeypatch):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=37)  # far from the first midpoint
    dist = random_point_mass(concept, 256, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    recovery = OracleKeyRecovery()
    recovery.register(concept.key)

    view_calls, counted = collections.Counter(), {}

    def counting(view):
        if view not in counted:

            def wrapper(x, b):
                view_calls[view] += 1
                return view(x, b)

            counted[view] = wrapper
        return counted[view]

    class CountingViewQuery(ViewQuery):
        __slots__ = ()

        def __init__(self, view, test):
            super().__init__(counting(view), test)

    dec_calls = []
    dec = StrengthenedOre.dec
    monkeypatch.setattr(sq, "ViewQuery", CountingViewQuery)
    monkeypatch.setattr(StrengthenedOre, "dec", lambda *a: dec_calls.append(a) or dec(*a))
    h = sq_learn(oracle, 0.05, recovery, scheme)

    assert isinstance(h, DecryptThresholdHypothesis) and h.t > 0
    assert oracle.query_count - (1 + 8 * scheme.params_len()) >= 3  # threshold queries
    assert len(view_calls) == 2  # (params, label) and the decryption
    assert set(view_calls.values()) == {256}
    assert len(dec_calls) <= 256
    assert dist.exact_error(h, concept) <= 0.05


def test_sq_trial_decrypts_each_point_once_per_role(monkeypatch):
    # on a 256-point support: the oracle's labels and the learner's
    # decryption view each decrypt every point once; the error reuses the
    # labels and the view's values instead of decrypting again
    dec_calls, label_calls = [], []
    dec, evaluate = StrengthenedOre.dec, EncThreshConcept.evaluate
    monkeypatch.setattr(StrengthenedOre, "dec", lambda *a: dec_calls.append(a) or dec(*a))
    monkeypatch.setattr(
        EncThreshConcept, "evaluate", lambda *a: label_calls.append(a) or evaluate(*a)
    )
    report = run(ExperimentConfig.from_dict({"experiment": "sq", "ell": 10, "trials": 1}))

    assert report.passed and report.rows[0]["hypothesis"] == "threshold"
    assert len(dec_calls) <= 512
    assert len(label_calls) <= 256


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=64),
    t=st.integers(0, 256),
    anchor=st.integers(0, 255),
)
def test_oracle_error_is_the_exact_error(seed, weights, t, anchor):
    scheme = build_scheme("escrow", 8)
    concept, dist = _mixed_support(scheme, seed, weights)
    key = concept.key
    oracle = StatOracle(concept, dist, 0.05, mode="jitter", rng=np.random.default_rng(seed))
    for h in (
        AllZeroesHypothesis(),
        ComparatorHypothesis(scheme, key.params, scheme.enc(key.sk, anchor)),
        DecryptThresholdHypothesis(scheme, key.params, key.sk, t),
    ):
        assert oracle.error(h) == dist.exact_error(h, concept)
    # scoring is not a query: no count and no jitter draw
    assert oracle.query_count == 0
    assert oracle.rng.random() == np.random.default_rng(seed).random()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=32),
    mode=st.sampled_from(["exact", "jitter"]),
    tiny=st.booleans(),
    coin=st.integers(0, 63),
)
def test_learned_hypothesis_is_scored_from_the_learners_view(seed, weights, mode, tiny, coin):
    if tiny:  # a key from a low coin string, so exhaustive search stays short
        scheme = build_scheme("escrow", 8, 2)
        concept, dist = _mixed_support(scheme, seed, weights, coin=coin)
        recovery = TinyKeyspaceRecovery(scheme)
    else:
        scheme = build_scheme("escrow", 8)
        concept, dist = _mixed_support(scheme, seed, weights)
        recovery = OracleKeyRecovery()
        recovery.register(concept.key)
    oracle = StatOracle(concept, dist, 0.05, mode=mode, rng=np.random.default_rng(seed))
    h = sq_learn(oracle, 0.05, recovery, scheme)
    count, state = oracle.query_count, oracle.rng.bit_generator.state
    with mock.patch.object(
        StrengthenedOre, "dec", autospec=True, side_effect=StrengthenedOre.dec
    ) as dec:
        error = oracle.error(h)
    assert dec.call_count == 0  # scored from the threshold queries' decryptions
    assert error == dist.exact_error(h, concept)
    assert error == sum(w for x, w in dist.support() if h.evaluate(x) != concept.evaluate(x))
    # scoring is not a query: no count and no jitter draw
    assert oracle.query_count == count and oracle.rng.bit_generator.state == state


# few salts and cuts, so equal tests recur
_SALTS, _CUTS = st.sampled_from([b"", b"1", b"2"]), st.sampled_from([0, 4, 8, 12, 16])


class OracleAgainstMemoFreeTwin(RuleBasedStateMachine):
    """A grouped, memoizing oracle and a twin on the same support and seed.

    The twin gets every query as a plain per-point callable, so it keeps no
    view and no answer; every answer, score, query count and jitter draw of
    the two must agree.  Views are shared or fresh function objects, tests
    are fresh closures (equal salts and cuts give equal verdicts), and the
    threshold hypotheses' ``decrypt`` views are asked, moved and scored as
    the learner does.
    """

    @initialize(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(4, 16),
        mode=st.sampled_from(["exact", "jitter"]),
    )
    def build(self, seed, size, mode):
        # distinct generic weights, so different passing sets have different sums
        weights = np.random.default_rng(seed).uniform(1e-3, 1.0, size).tolist()
        scheme = build_scheme("escrow", 8)
        concept, dist = _mixed_support(scheme, seed, weights)
        self.oracle, self.twin = (
            StatOracle(concept, dist, 0.05, mode=mode, rng=np.random.default_rng(seed))
            for _ in range(2)
        )
        key, foreign = concept.key, scheme.gen(np.random.default_rng(seed ^ 1))
        self.thresholds = [
            DecryptThresholdHypothesis(scheme, key.params, key.sk, 64),
            DecryptThresholdHypothesis(scheme, key.params, key.sk, 192),
            DecryptThresholdHypothesis(scheme, foreign.params, foreign.sk, 128),
        ]
        self.hypotheses = self.thresholds + [
            AllZeroesHypothesis(),
            ComparatorHypothesis(scheme, key.params, scheme.enc(key.sk, 100)),
        ]
        # two bit views that read 0 on the first point, so their distinct
        # values come in the same order while their partitions differ
        c0, c1 = zlib.crc32(dist.points[0].ct), zlib.crc32(dist.points[0].ct[1:])
        self.views = [
            sq._params_and_label,
            lambda x, b: b,
            lambda x, b: (zlib.crc32(x.ct) ^ c0) & 1,
            lambda x, b: (zlib.crc32(x.ct[1:]) ^ c1) & 1,
        ] + [h.decrypt for h in self.thresholds]

    @rule(
        queries=st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from(["shared", "fresh", "plain"])),
            min_size=1,
            max_size=4,
        ),
        salt=_SALTS,
        cut=_CUTS,
    )
    def query(self, queries, salt, cut):
        # one verdict rule asked through several views, a fresh test each time
        for index, kind in queries:
            view, test = self.views[index], _salted_test(salt, cut)
            if kind == "fresh":  # a new function object with the same values
                view = lambda x, b, f=view: f(x, b)
            psi = lambda x, b: test(view(x, b))
            answer = self.oracle.query(psi if kind == "plain" else ViewQuery(view, test), 0.02)
            assert answer == self.twin.query(psi, 0.02)

    @rule(index=st.integers(0, 2), t=st.integers(0, 256))
    def threshold_query(self, index, t):
        # the learner's pattern: move the threshold, ask through decrypt
        h = self.thresholds[index]
        h.t = t
        answer = self.oracle.query(ViewQuery(h.decrypt, h.accepts), 0.02)
        assert answer == self.twin.query(lambda x, b: h.evaluate(x), 0.02)

    @rule(index=st.integers(0, 4), t=st.none() | st.integers(0, 256))
    def score(self, index, t):
        h = self.hypotheses[index]
        if t is not None and index < len(self.thresholds):
            h.t = t
        assert self.oracle.error(h) == self.twin.error(h)

    @invariant()
    def same_counts_and_draws(self):
        assert self.oracle.query_count == self.twin.query_count
        assert self.oracle.rng.bit_generator.state == self.twin.rng.bit_generator.state


OracleAgainstMemoFreeTwin.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
test_oracle_against_memo_free_twin = OracleAgainstMemoFreeTwin.TestCase


# -- learner ---------------------------------------------------------------------


def test_learner_outputs_all_zeroes_off_params_mass(rng):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=512)
    other = scheme.gen(rng)
    points = [
        Example(other.params, scheme.enc(other.sk, int(m)))
        for m in rng.integers(0, scheme.domain_size, size=16)
    ]
    dist = PointMassDistribution(points, [1.0] * 16)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    h = sq_learn(oracle, 0.05, OracleKeyRecovery(), scheme)
    assert isinstance(h, AllZeroesHypothesis)
    assert oracle.query_count == 1


def _exact_threshold_error(hypothesis, concept, dist):
    return dist.exact_error(hypothesis, concept)


@pytest.mark.parametrize("mode", ["exact", "jitter"])
def test_learner_recovers_good_threshold(mode, rng):
    scheme = build_scheme("escrow", 10)
    alpha = 0.05
    bound = 1 + 8 * scheme.params_len() + scheme.ell
    for trial in range(6):
        concept = random_concept(
            scheme, rng, t=int(rng.integers(1, scheme.domain_size + 1))
        )
        dist = random_point_mass(concept, 128, rng)
        oracle = StatOracle(concept, dist, alpha=alpha, mode=mode, rng=rng)
        recovery = OracleKeyRecovery()
        recovery.register(concept.key)
        h = sq_learn(oracle, alpha, recovery, scheme)
        assert oracle.query_count <= bound
        assert _exact_threshold_error(h, concept, dist) <= alpha
        if isinstance(h, DecryptThresholdHypothesis):
            assert h.params.data == concept.key.params.data


def test_learner_recovers_params_bits_exactly(rng):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=700)
    dist = random_point_mass(concept, 128, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    recovery = OracleKeyRecovery()
    recovery.register(concept.key)
    h = sq_learn(oracle, 0.05, recovery, scheme)
    assert isinstance(h, DecryptThresholdHypothesis)
    assert h.params.data == concept.key.params.data


def test_learner_errors_without_matching_key(rng):
    scheme = build_scheme("escrow", 10)
    concept = random_concept(scheme, rng, t=700)
    dist = random_point_mass(concept, 64, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    with pytest.raises(KeyRecoveryError):
        sq_learn(oracle, 0.05, OracleKeyRecovery(), scheme)


def test_learner_threshold_interval_always_contains_target(rng):
    # with an exact oracle the learner's final threshold gives error <= alpha
    # for every achievable t, checked against per-t error enumeration
    scheme = build_scheme("escrow", 8)
    alpha = 0.05
    concept = random_concept(scheme, rng, t=97)
    dist = random_point_mass(concept, 100, rng)
    oracle = StatOracle(concept, dist, alpha=alpha, mode="exact")
    recovery = OracleKeyRecovery()
    recovery.register(concept.key)
    h = sq_learn(oracle, alpha, recovery, scheme)
    per_t_error = dist.exact_error(h, concept)
    brute = min(
        dist.exact_error(
            DecryptThresholdHypothesis(scheme, concept.key.params, concept.key.sk, t),
            concept,
        )
        for t in range(0, scheme.domain_size + 1, 16)
    )
    assert per_t_error <= alpha and per_t_error <= brute + alpha


# -- key recovery -------------------------------------------------------------------


def test_tiny_keyspace_exhaustive_search(rng):
    scheme = build_scheme("escrow", 8, 2)
    key = scheme.gen(rng)
    recovery = TinyKeyspaceRecovery(scheme)
    sk = recovery.recover(key.params)
    assert recovery.searched <= 1 << 16
    for m in range(0, 256, 13):
        assert scheme.dec(sk, scheme.enc(key.sk, m)) == m


def test_tiny_keyspace_rejects_large_coin_space():
    with pytest.raises(ValueError):
        TinyKeyspaceRecovery(build_scheme("escrow", 8, 32))


def test_tiny_keyspace_fails_on_foreign_params(rng):
    tiny = build_scheme("escrow", 8, 2)
    other = build_scheme("escrow", 8, 32).gen(rng)
    with pytest.raises(KeyRecoveryError):
        TinyKeyspaceRecovery(tiny).recover(other.params)


# -- functional equivalence -----------------------------------------------------------


def _assert_decrypt_alike(scheme, sk, other, rng):
    # every encryption of the domain under either key, and 300 mutants
    domain = range(scheme.domain_size)
    cts = scheme.enc_many(sk, domain) + scheme.enc_many(other, domain)
    for _ in range(300):
        ct = scheme.enc(sk, int(rng.integers(0, scheme.domain_size)))
        cts.append(mutate_ciphertext(ct, MUTATION_CLASSES[1 + int(rng.integers(0, 3))], rng))
    assert [scheme.dec(other, ct) for ct in cts] == [scheme.dec(sk, ct) for ct in cts]


def test_key_equivalence_identity(rng):
    # the second pass over each ciphertext is answered by the plaintext memo
    scheme = build_scheme("escrow", 8)
    key = scheme.gen(rng)
    _assert_decrypt_alike(scheme, key.sk, key.sk, rng)


def test_key_equivalence_same_coins(rng):
    scheme = build_scheme("escrow", 8)
    coins = bytes(rng.bytes(32))
    k1, k2 = scheme.gen_from_coins(coins), scheme.gen_from_coins(coins)
    _assert_decrypt_alike(scheme, k1.sk, k2.sk, rng)


def test_recovered_key_decrypts_like_the_generating_key(rng):
    # step 3 of the learner: any key matching the params decrypts like the
    # generating key, so the recovered one may stand in for it
    scheme = build_scheme("escrow", 8, 2)
    key = scheme.gen(rng)
    _assert_decrypt_alike(scheme, key.sk, TinyKeyspaceRecovery(scheme).recover(key.params), rng)
