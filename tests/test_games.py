"""Indistinguishability games, the hybrid schedule, and the reduction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orelearn.core import BOT
from orelearn.encthresh import pac_learn
from orelearn.games import (
    ChallengePair,
    EscrowKeyLeakAdversary,
    PayloadBitAdversary,
    RandomGuessAdversary,
    ReductionAdversary,
    SingleChallenge,
    adversary_success_prob,
    hybrid_schedule,
    run_single_challenge_game,
    run_static_game,
    synthetic_reduction_win_rate,
)
from orelearn.opf import OpfOre
from orelearn.strengthen import EscrowCertifier, SignatureCertifier, StrengthenedOre


def _scheme(ell=16):
    return StrengthenedOre(OpfOre(ell=ell), EscrowCertifier())


# -- challenge validation ------------------------------------------------------


def test_challenge_pair_validation():
    ChallengePair((1, 5, 9), (2, 5, 8)).validate(16)
    with pytest.raises(ValueError):
        ChallengePair((1, 2), (1, 2, 3)).validate(16)
    with pytest.raises(ValueError):
        ChallengePair((2, 1), (1, 2)).validate(16)  # descending side
    with pytest.raises(ValueError):
        ChallengePair((1, 1), (1, 2)).validate(16)  # duplicate query
    with pytest.raises(ValueError):
        ChallengePair((1, 2), (1, 99)).validate(16)  # out of domain
    with pytest.raises(ValueError):
        ChallengePair((), ()).validate(16)


def test_single_challenge_sandwich_validation():
    SingleChallenge((1, 10), 4, 6).validate(16)
    with pytest.raises(ValueError):  # challenge before the first base message
        SingleChallenge((5, 10), 1, 3).validate(16)
    with pytest.raises(ValueError):  # challenge after the last base message
        SingleChallenge((1, 5), 7, 9).validate(16)
    with pytest.raises(ValueError):  # m_left must be strictly below m_right
        SingleChallenge((1, 10), 6, 6).validate(16)
    with pytest.raises(ValueError):  # base message inside the sandwich window
        SingleChallenge((1, 5, 10), 4, 6).validate(16)


# -- hybrid schedule -----------------------------------------------------------


def test_hybrid_frozen_example():
    # hand expansion of the two formulas for L=(1,5,9), R=(2,5,8)
    hybrids = hybrid_schedule(ChallengePair((1, 5, 9), (2, 5, 8)))
    assert hybrids == [
        (1, 5, 9),
        (1, 5, 9),
        (1, 5, 9),
        (1, 5, 8),
        (1, 5, 8),
        (1, 5, 8),
        (2, 5, 8),
    ]


def test_hybrid_q1():
    assert hybrid_schedule(ChallengePair((3,), (7,))) == [(3,), (3,), (7,)]


def test_hybrid_identical_sides():
    hybrids = hybrid_schedule(ChallengePair((1, 4, 6), (1, 4, 6)))
    assert all(h == (1, 4, 6) for h in hybrids)


def _ascending_tuples(draw_q):
    return st.integers(1, draw_q).flatmap(
        lambda q: st.tuples(
            st.sets(st.integers(0, 9), min_size=q, max_size=q),
            st.sets(st.integers(0, 9), min_size=q, max_size=q),
        )
    )


@given(_ascending_tuples(4))
@settings(max_examples=300)
def test_hybrid_properties(pair_sets):
    left, right = (tuple(sorted(s)) for s in pair_sets)
    pair = ChallengePair(left, right)
    hybrids = hybrid_schedule(pair)
    q = len(left)
    assert len(hybrids) == 2 * q + 1
    assert hybrids[0] == left and hybrids[-1] == right
    for h in hybrids:
        assert all(a < b for a, b in zip(h, h[1:]))
    for a, b in zip(hybrids, hybrids[1:]):
        assert sum(x != y for x, y in zip(a, b)) <= 1


# -- success probability -------------------------------------------------------


def _enumerated_success(p, q):
    """Independent oracle: exact expectation over (bucket, y0, y1)."""
    win = 0.0
    for r in (p, q):  # left challenge: both draws from bucket with rate r
        for y0 in (0, 1):
            for y1 in (0, 1):
                pr = (r if y0 else 1 - r) * (r if y1 else 1 - r)
                win += 0.25 * pr * (1 if y0 == y1 else 0)
    for y0 in (0, 1):  # right challenge: one draw per bucket
        for y1 in (0, 1):
            pr = (p if y0 else 1 - p) * (q if y1 else 1 - q)
            win += 0.5 * pr * (1 if y0 != y1 else 0)
    return win


def test_success_prob_frozen_values():
    assert adversary_success_prob(1, 0) == 1.0
    for p in (0.0, 0.3, 0.5, 1.0):
        assert adversary_success_prob(p, p) == 0.5
    assert abs(adversary_success_prob(0.75, 0.25) - 0.625) < 1e-15
    assert abs(_enumerated_success(0.75, 0.25) - 0.625) < 1e-15


def test_success_prob_equals_enumeration_on_grid():
    grid = [i * 0.05 for i in range(21)]
    for p in grid:
        for q in grid:
            assert abs(adversary_success_prob(p, q) - _enumerated_success(p, q)) < 1e-12
            assert abs(adversary_success_prob(p, q) - (0.5 + 0.5 * (p - q) ** 2)) < 1e-12


def test_success_prob_rejects_out_of_range():
    with pytest.raises(ValueError):
        adversary_success_prob(1.5, 0)
    with pytest.raises(ValueError):
        adversary_success_prob(0, -0.1)


def test_synthetic_monte_carlo_matches_formula(rng):
    for p, q in ((1.0, 0.0), (0.75, 0.25), (0.5, 0.5)):
        rate = synthetic_reduction_win_rate(p, q, 30_000, rng)
        assert abs(rate - adversary_success_prob(p, q)) < 0.015


# -- game runners ----------------------------------------------------------------


def test_random_guesser_has_no_advantage(rng):
    report = run_static_game(_scheme(), RandomGuessAdversary(), 2000, rng)
    assert report.advantage <= 0.03 + report.ci_halfwidth


def test_identical_sides_yield_no_advantage_for_any_rule(rng):
    class ParityRule(RandomGuessAdversary):
        def guess(self, params, cts, rng):
            return cts[0][-1] & 1

    report = run_static_game(_scheme(), ParityRule(), 1500, rng)
    assert report.advantage <= 0.05 + report.ci_halfwidth


def test_invalid_challenge_rejected_before_encryption(rng):
    class Descending:
        def choose_challenge(self, rng):
            return ChallengePair((9, 1), (1, 9))

        def guess(self, params, cts, rng):  # pragma: no cover
            raise AssertionError("must not be reached")

    with pytest.raises(ValueError):
        run_static_game(_scheme(), Descending(), 1, rng)


def test_payload_adversary_has_no_advantage(rng):
    scheme = _scheme()
    pair = ChallengePair((100, 200, 300), (150, 250, 350))
    report = run_static_game(scheme, PayloadBitAdversary(pair), 1500, rng)
    assert report.advantage <= 0.05 + report.ci_halfwidth


def test_escrow_leak_adversary_wins(rng):
    # negative control: the harness must detect a broken (leaky) scheme
    base = OpfOre(ell=16)
    scheme = StrengthenedOre(base, EscrowCertifier())
    pair = ChallengePair((100, 200), (150, 250))
    report = run_static_game(scheme, EscrowKeyLeakAdversary(base, pair), 200, rng)
    assert report.advantage >= 0.9


def test_escrow_leak_adversary_rejects_non_escrow_params(rng):
    base = OpfOre(ell=16)
    adversary = EscrowKeyLeakAdversary(base, ChallengePair((100, 200), (150, 250)))
    for scheme in (base, StrengthenedOre(base, SignatureCertifier())):
        key = scheme.gen(rng)
        with pytest.raises(ValueError):
            adversary.guess(key.params, [scheme.enc(key.sk, 100)], rng)


def test_single_challenge_random_guesser(rng):
    class Rand:
        def choose_challenge(self, rng):
            return SingleChallenge((10, 1000), 200, 300)

        def guess(self, params, cts, cstar, rng):
            return int(rng.integers(0, 2))

    report = run_single_challenge_game(_scheme(), Rand(), 1500, rng)
    assert report.advantage <= 0.05 + report.ci_halfwidth


def test_single_challenge_leaked_key_decryptor_wins(rng):
    base = OpfOre(ell=16)
    scheme = StrengthenedOre(base, EscrowCertifier())

    class Decryptor:
        def choose_challenge(self, rng):
            return SingleChallenge((10, 1000), 200, 300)

        def guess(self, params, cts, cstar, rng):
            blob = params.cert_vk.serialize()
            sk = base.key_from_bytes(blob[len(b"escrow:") :])
            base_ct, _ = scheme.parse(cstar)
            return 0 if base.dec(sk, base_ct) == 200 else 1

    report = run_single_challenge_game(scheme, Decryptor(), 200, rng)
    assert report.advantage >= 0.9


# -- the reduction adversary -----------------------------------------------------


def test_reduction_adversary_builds_the_replaced_sample(rng):
    scheme = _scheme(ell=24)
    n, j_star = 10, 4
    captured = {}

    def spy_learner(sample):
        captured["sample"] = sample
        return pac_learn(scheme, sample)

    adversary = ReductionAdversary(scheme, spy_learner, n, j_star)
    challenge = adversary.choose_challenge(rng)
    challenge.validate(scheme.domain_size)
    assert len(challenge.left) == n + 2
    key = scheme.gen(rng)
    cts = [scheme.enc(key.sk, m) for m in challenge.left]
    adversary.guess(key.params, cts, rng)

    sample = captured["sample"]
    assert len(sample) == n
    junk_example, junk_label = sample[j_star - 1]
    assert junk_label == 1
    assert scheme.dec(key.sk, junk_example.ct) == 0  # the junk slot encrypts 0
    t = scheme.domain_size // 2
    for pos, (x, label) in enumerate(sample):
        if pos == j_star - 1:
            continue
        m = scheme.dec(key.sk, x.ct)
        assert m is not BOT
        assert label == (1 if m < t else 0)


def test_reduction_adversary_handles_cramped_domains(rng):
    # tiny domain: draws are essentially never well-spaced; the adversary
    # must still emit a valid challenge and fall back to random guessing
    scheme = _scheme(ell=4)
    adversary = ReductionAdversary(scheme, lambda s: None, 8, 3)
    challenge = adversary.choose_challenge(rng)
    challenge.validate(scheme.domain_size)
    assert adversary.transcript_flags["degenerate"]
    g = adversary.guess(scheme.gen(rng).params, [], rng)
    assert g in (0, 1)


def test_reduction_with_honest_learner_meets_theory_floor(rng):
    # the honest learner does not violate soundness, so the measured
    # advantage only needs to clear the (tiny) theoretical floor minus noise
    scheme = _scheme(ell=32)
    n = 20
    learner = lambda sample: pac_learn(scheme, sample)
    adversary = ReductionAdversary(scheme, learner, n, j_star=7)
    report = run_static_game(scheme, adversary, 400, rng)
    gamma = 0.45
    floor = gamma**2 / (8 * n**2)
    assert report.advantage >= floor - report.ci_halfwidth


def test_constant_hypothesis_gives_no_advantage(rng):
    scheme = _scheme(ell=32)

    class Zero:
        def evaluate(self, x):
            return 0

    adversary = ReductionAdversary(scheme, lambda s: Zero(), 10, 5)
    report = run_static_game(scheme, adversary, 600, rng)
    # agreement always holds, so the guess is constantly "left"
    assert report.p_guess1_given_b0 == 0.0 and report.p_guess1_given_b1 == 0.0


def test_reduction_rejects_bad_index():
    scheme = _scheme(ell=16)
    with pytest.raises(ValueError):
        ReductionAdversary(scheme, lambda s: None, 10, 0)
    with pytest.raises(ValueError):
        ReductionAdversary(scheme, lambda s: None, 10, 11)


def test_game_runner_reproducible_and_scheme_unmutated():
    scheme = _scheme()

    def run_once():
        rng = np.random.default_rng(321)
        return run_static_game(
            scheme, RandomGuessAdversary(), 50, rng, keep_transcripts=True
        )

    a, b = run_once(), run_once()
    assert [(t.bit, t.guess) for t in a.transcripts] == [
        (t.bit, t.guess) for t in b.transcripts
    ]
    assert a.advantage == b.advantage
