"""Indistinguishability games, the hybrid schedule, and the reduction."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orelearn.encthresh import pac_learn
from orelearn.games import (
    ChallengePair,
    EscrowKeyLeakAdversary,
    PayloadBitAdversary,
    RandomGuessAdversary,
    ReductionAdversary,
    adversary_success_prob,
    hybrid_schedule,
    run_static_game,
    synthetic_reduction_win_rate,
)
from orelearn.harness import ExperimentConfig, run
from orelearn.reident import draw_buckets
from test_contract import build_scheme


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


def _numpy_win_rate(p, q, trials, rng):
    """``synthetic_reduction_win_rate`` as it was written on numpy arrays,
    kept as the reference."""
    if trials == 0:
        return float("nan")
    bits = rng.integers(0, 2, size=trials)
    u0, u1 = rng.random(trials), rng.random(trials)
    same_bucket_rate = np.where(rng.integers(0, 2, size=trials) == 0, p, q)
    rate0 = np.where(bits == 0, same_bucket_rate, p)
    rate1 = np.where(bits == 0, same_bucket_rate, q)
    guesses = ((u0 < rate0) != (u1 < rate1)).astype(int)
    return float(np.mean(guesses == bits))


@pytest.mark.parametrize("trials", [0, 1, 7, 20_000])
@pytest.mark.parametrize("p, q", [(1.0, 0.0), (0.75, 0.25), (0.5, 0.5), (0.3, 0.9)])
def test_synthetic_win_rate_matches_the_numpy_reference(p, q, trials):
    for seed in range(3):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synthetic_reduction_win_rate(p, q, trials, rng)
        assert repr(got) == repr(_numpy_win_rate(p, q, trials, reference))
        assert rng.integers(0, 2**63) == reference.integers(0, 2**63)


def test_synthetic_monte_carlo_matches_formula(rng):
    for p, q in ((1.0, 0.0), (0.75, 0.25), (0.5, 0.5)):
        rate = synthetic_reduction_win_rate(p, q, 30_000, rng)
        assert abs(rate - adversary_success_prob(p, q)) < 0.015


# -- game runners ----------------------------------------------------------------


def test_random_guesser_has_no_advantage(rng):
    report = run_static_game(build_scheme("escrow", 16), RandomGuessAdversary(), 2000, rng)
    assert report.advantage <= 0.03 + report.ci_halfwidth


def test_identical_sides_yield_no_advantage_for_any_rule(rng):
    class ParityRule(RandomGuessAdversary):
        def guess(self, params, cts, rng):
            return cts[0][-1] & 1

    report = run_static_game(build_scheme("escrow", 16), ParityRule(), 1500, rng)
    assert report.advantage <= 0.05 + report.ci_halfwidth


def test_invalid_challenge_rejected_before_encryption(rng):
    class Descending:
        def choose_challenge(self, rng):
            return ChallengePair((9, 1), (1, 9))

        def guess(self, params, cts, rng):  # pragma: no cover
            raise AssertionError("must not be reached")

    with pytest.raises(ValueError):
        run_static_game(build_scheme("escrow", 16), Descending(), 1, rng)


def test_payload_adversary_has_no_advantage(rng):
    scheme = build_scheme("escrow", 16)
    pair = ChallengePair((100, 200, 300), (150, 250, 350))
    report = run_static_game(scheme, PayloadBitAdversary(pair), 1500, rng)
    assert report.advantage <= 0.05 + report.ci_halfwidth


def test_escrow_leak_adversary_wins(rng):
    # negative control: the harness must detect a broken (leaky) scheme
    scheme = build_scheme("escrow", 16)
    pair = ChallengePair((100, 200), (150, 250))
    report = run_static_game(scheme, EscrowKeyLeakAdversary(scheme.base, pair), 200, rng)
    assert report.advantage >= 0.9


def test_escrow_leak_adversary_rejects_non_escrow_params(rng):
    adversary = EscrowKeyLeakAdversary(build_scheme("opf", 16), ChallengePair((100, 200), (150, 250)))
    for scheme in (build_scheme("opf", 16), build_scheme("signature", 16)):
        key = scheme.gen(rng)
        with pytest.raises(ValueError):
            adversary.guess(key.params, [scheme.enc(key.sk, 100)], rng)


# -- the reduction adversary -----------------------------------------------------


def test_reduction_adversary_builds_the_replaced_sample(rng):
    scheme = build_scheme("escrow", 24)
    n, j_star = 10, 4
    captured = {}

    def spy_learner(sample):
        captured["sample"] = sample
        return pac_learn(scheme, sample)

    adversary = ReductionAdversary(scheme, spy_learner, n, j_star)
    raw = draw_buckets(scheme.domain_size, n, copy.deepcopy(rng))[0]
    challenge = adversary.choose_challenge(rng)
    challenge.validate(scheme.domain_size)
    assert not adversary.transcript_flags["degenerate"]
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
        assert m == raw[pos]  # each slot holds the draw at its own position
        assert label == (1 if m < t else 0)


def test_reduction_adversary_handles_cramped_domains(rng):
    # tiny domain: draws are essentially never well-spaced; the adversary
    # must still emit a valid challenge and fall back to random guessing
    scheme = build_scheme("escrow", 4)
    adversary = ReductionAdversary(scheme, lambda s: None, 8, 3)
    challenge = adversary.choose_challenge(rng)
    challenge.validate(scheme.domain_size)
    assert adversary.transcript_flags["degenerate"]
    g = adversary.guess(scheme.gen(rng).params, [], rng)
    assert g in (0, 1)


def test_reduction_with_honest_learner_shows_no_advantage(rng):
    # the honest learner breaks no tracing soundness, so the reduction has
    # no advantage beyond noise: the gate of ``games --mode reduction``
    scheme = build_scheme("escrow", 32)
    learner = lambda sample: pac_learn(scheme, sample)
    adversary = ReductionAdversary(scheme, learner, 20, j_star=7)
    report = run_static_game(scheme, adversary, 400, rng)
    assert report.advantage <= 0.03 + report.ci_halfwidth


def test_an_undrawn_challenge_bit_has_no_rate():
    # one trial draws bit 0 only: p1 and the advantage are undefined (null
    # in the JSON report), not 0.0 and a full-strength 1.0
    raw = {"experiment": "games", "mode": "random", "trials": 1, "seed": 4}
    report = run(ExperimentConfig.from_dict(raw))
    aggregates = report.aggregates
    assert aggregates["p0"] == 1.0
    assert math.isnan(aggregates["p1"]) and math.isnan(aggregates["advantage"])
    assert math.isnan(report.rows[0]["ci_lo"]) and math.isnan(report.rows[0]["ci_hi"])
    blob = json.loads(report.to_json())["aggregates"]
    assert blob["p1"] is None and blob["advantage"] is None
    assert report.passed is False  # no measured advantage, so no pass


def test_constant_hypothesis_gives_no_advantage(rng):
    scheme = build_scheme("escrow", 32)

    class Zero:
        def evaluate(self, x):
            return 0

    adversary = ReductionAdversary(scheme, lambda s: Zero(), 10, 5)
    report = run_static_game(scheme, adversary, 600, rng)
    # agreement always holds, so the guess is constantly "left"
    assert report.p_guess1_given_b0 == 0.0 and report.p_guess1_given_b1 == 0.0


def test_reduction_rejects_bad_index():
    scheme = build_scheme("escrow", 16)
    with pytest.raises(ValueError):
        ReductionAdversary(scheme, lambda s: None, 10, 0)
    with pytest.raises(ValueError):
        ReductionAdversary(scheme, lambda s: None, 10, 11)


@pytest.mark.parametrize("kind", ["random", "reduction"])
def test_transcripts_change_no_figure_of_the_report(kind):
    # the report and the transcripts are read off the same per-trial records,
    # so asking for transcripts changes no rate, interval or flag count
    scheme = build_scheme("escrow", 8)

    def play(keep):
        if kind == "random":
            adversary = RandomGuessAdversary()
        else:  # at ell 8 some draws are not well-spaced, so both flags get counted
            adversary = ReductionAdversary(scheme, lambda s: pac_learn(scheme, s), 8, 4)
        return run_static_game(scheme, adversary, 40, np.random.default_rng(11), keep)

    plain, kept = play(False), play(True)
    assert plain.transcripts is None and len(kept.transcripts) == 40
    for name in ("p_guess1_given_b0", "p_guess1_given_b1", "advantage", "ci_halfwidth"):
        assert getattr(plain, name) == getattr(kept, name), name
    assert plain.flag_counts == kept.flag_counts
    assert list(plain.flag_counts) == list(kept.flag_counts)  # first-truthy order
    counted = {k: sum(bool(t.get(k)) for t in kept.transcripts) for k in kept.flag_counts}
    assert counted == kept.flag_counts
    if kind == "reduction":
        assert set(kept.flag_counts) == {"degenerate", "not_well_spaced"}
    else:
        assert kept.flag_counts == {}


def test_game_runner_reproducible_and_scheme_unmutated():
    scheme = build_scheme("escrow", 16)

    def run_once():
        rng = np.random.default_rng(321)
        return run_static_game(
            scheme, RandomGuessAdversary(), 50, rng, keep_transcripts=True
        )

    a, b = run_once(), run_once()
    assert [(t["bit"], t["guess"]) for t in a.transcripts] == [
        (t["bit"], t["guess"]) for t in b.transcripts
    ]
    assert a.advantage == b.advantage
