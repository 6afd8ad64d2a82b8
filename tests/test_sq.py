"""Statistical-query oracle, the threshold learner, key recovery."""

import numpy as np
import pytest

from orelearn.encthresh import (
    AllZeroesHypothesis,
    DecryptThresholdHypothesis,
    Example,
    PointMassDistribution,
    random_concept,
)
from orelearn.opf import OpfOre
from orelearn.sq import (
    KeyRecoveryError,
    OracleKeyRecovery,
    StatOracle,
    TinyKeyspaceRecovery,
    bit_of,
    check_key_equivalence,
    sq_learn,
    tolerance_floor,
)
from orelearn.strengthen import EscrowCertifier, StrengthenedOre


def _scheme(ell=10, coin_len=32):
    return StrengthenedOre(OpfOre(ell=ell, coin_len=coin_len), EscrowCertifier())


def _uniform_support_dist(concept, size, rng):
    ms = rng.choice(concept.scheme.domain_size, size=size, replace=False)
    points = [concept.encrypt_example(int(m)) for m in ms]
    weights = rng.dirichlet(np.ones(size)).tolist()
    return PointMassDistribution(points, weights)


# -- oracle ---------------------------------------------------------------------


def test_oracle_exact_label_query_on_all_positive_mass(rng):
    scheme = _scheme()
    concept = random_concept(scheme, rng, t=scheme.domain_size)  # all positive
    dist = PointMassDistribution([concept.encrypt_example(5)], [1.0])
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    assert oracle.query(lambda x, b: b == 1, 0.05) == 1.0


def test_oracle_constant_zero_query(rng):
    scheme = _scheme()
    concept = random_concept(scheme, rng, t=64)
    dist = _uniform_support_dist(concept, 32, rng)
    for mode in ("exact", "jitter"):
        oracle = StatOracle(concept, dist, alpha=0.05, mode=mode, rng=rng)
        assert oracle.query(lambda x, b: False, 0.05) <= 0.05


def test_oracle_jitter_within_tolerance(rng):
    scheme = _scheme()
    concept = random_concept(scheme, rng, t=512)
    dist = _uniform_support_dist(concept, 64, rng)
    exact = StatOracle(concept, dist, alpha=0.05, mode="exact")
    jitter = StatOracle(concept, dist, alpha=0.05, mode="jitter", rng=rng)
    psi = lambda x, b: b == 1
    truth = exact.query(psi, 0.02)
    for _ in range(500):
        assert abs(jitter.query(psi, 0.02) - truth) <= 0.02


def test_oracle_rejects_tolerance_below_floor(rng):
    scheme = _scheme()
    concept = random_concept(scheme, rng, t=64)
    dist = _uniform_support_dist(concept, 8, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    with pytest.raises(ValueError):
        oracle.query(lambda x, b: b == 1, oracle.tau_floor / 2)


def test_oracle_counts_queries(rng):
    scheme = _scheme()
    concept = random_concept(scheme, rng, t=64)
    dist = _uniform_support_dist(concept, 8, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    for k in range(1, 6):
        oracle.query(lambda x, b: b == 1, 0.05)
        assert oracle.query_count == k


def test_tolerance_floor_formula():
    assert tolerance_floor(1000, 0.05) == 1.0 / (64 * 1000 * 20)


def test_bit_of_msb_first():
    assert [bit_of(b"\x80", i) for i in range(8)] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bit_of(b"\x00\x01", 15) == 1


# -- learner ---------------------------------------------------------------------


def test_learner_outputs_all_zeroes_off_params_mass(rng):
    scheme = _scheme()
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
    scheme = _scheme(ell=10)
    alpha = 0.05
    bound = 1 + 8 * scheme.params_len() + scheme.ell
    for trial in range(6):
        concept = random_concept(
            scheme, rng, t=int(rng.integers(1, scheme.domain_size + 1))
        )
        dist = _uniform_support_dist(concept, 128, rng)
        oracle = StatOracle(concept, dist, alpha=alpha, mode=mode, rng=rng)
        recovery = OracleKeyRecovery()
        recovery.register(concept.key)
        h = sq_learn(oracle, alpha, recovery, scheme)
        assert oracle.query_count <= bound
        assert _exact_threshold_error(h, concept, dist) <= alpha
        if isinstance(h, DecryptThresholdHypothesis):
            assert h.params.data == concept.key.params.data


def test_learner_recovers_params_bits_exactly(rng):
    scheme = _scheme(ell=10)
    concept = random_concept(scheme, rng, t=700)
    dist = _uniform_support_dist(concept, 128, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    recovery = OracleKeyRecovery()
    recovery.register(concept.key)
    h = sq_learn(oracle, 0.05, recovery, scheme)
    assert isinstance(h, DecryptThresholdHypothesis)
    assert h.params.data == concept.key.params.data


def test_learner_errors_without_matching_key(rng):
    scheme = _scheme(ell=10)
    concept = random_concept(scheme, rng, t=700)
    dist = _uniform_support_dist(concept, 64, rng)
    oracle = StatOracle(concept, dist, alpha=0.05, mode="exact")
    with pytest.raises(KeyRecoveryError):
        sq_learn(oracle, 0.05, OracleKeyRecovery(), scheme)


def test_learner_threshold_interval_always_contains_target(rng):
    # with an exact oracle the learner's final threshold gives error <= alpha
    # for every achievable t, checked against per-t error enumeration
    scheme = _scheme(ell=8)
    alpha = 0.05
    concept = random_concept(scheme, rng, t=97)
    dist = _uniform_support_dist(concept, 100, rng)
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
    scheme = _scheme(ell=8, coin_len=2)
    key = scheme.gen(rng)
    recovery = TinyKeyspaceRecovery(scheme)
    sk = recovery.recover(key.params)
    assert recovery.searched <= 1 << 16
    for m in range(0, 256, 13):
        assert scheme.dec(sk, scheme.enc(key.sk, m)) == m


def test_tiny_keyspace_rejects_large_coin_space():
    with pytest.raises(ValueError):
        TinyKeyspaceRecovery(_scheme(ell=8, coin_len=32))


def test_tiny_keyspace_fails_on_foreign_params(rng):
    tiny = _scheme(ell=8, coin_len=2)
    other = _scheme(ell=8, coin_len=32).gen(rng)
    with pytest.raises(KeyRecoveryError):
        TinyKeyspaceRecovery(tiny).recover(other.params)


# -- functional equivalence -----------------------------------------------------------


def test_key_equivalence_identity(rng):
    scheme = _scheme(ell=8)
    key = scheme.gen(rng)
    report = check_key_equivalence(scheme, key.sk, key.sk, rng, fuzz_trials=300)
    assert report.passed


def test_key_equivalence_same_coins(rng):
    scheme = _scheme(ell=8)
    coins = bytes(rng.bytes(32))
    k1, k2 = scheme.gen_from_coins(coins), scheme.gen_from_coins(coins)
    report = check_key_equivalence(scheme, k1.sk, k2.sk, rng, fuzz_trials=300)
    assert report.passed


def test_key_equivalence_detects_mismatched_keys(rng):
    # different coins, different params: the precondition is violated and
    # the checker must report mismatches
    scheme = _scheme(ell=8)
    k1, k2 = scheme.gen(rng), scheme.gen(rng)
    report = check_key_equivalence(scheme, k1.sk, k2.sk, rng, fuzz_trials=100)
    assert not report.passed


def test_key_equivalence_rejects_large_domain(rng):
    scheme = _scheme(ell=16)
    key = scheme.gen(rng)
    with pytest.raises(ValueError):
        check_key_equivalence(scheme, key.sk, key.sk, rng)
