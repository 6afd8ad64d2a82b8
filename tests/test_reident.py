"""Tracing: bucket estimates, the accusation rule, and the DP consequence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orelearn.encthresh import (
    AllZeroesHypothesis,
    ComparatorHypothesis,
    pac_learn,
)
from orelearn.reident import (
    accuse_from_estimates,
    capped_sample_count,
    completeness_experiment,
    dp_bound,
    estimate_bucket_probs,
    gen_ex,
    concentration_sample_count,
    draw_buckets,
    sample_without,
    soundness_experiment,
    trace_ex,
)
from test_contract import build_scheme


# -- generation ----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:n.2")
def test_gen_ex_labels_follow_middle_threshold(rng):
    scheme = build_scheme("escrow", 16)
    state, sample = gen_ex(scheme, 30, rng)
    t = scheme.domain_size // 2
    assert state.concept.t == t
    for (x, label), m in zip(sample, state.raw_messages):
        assert label == (1 if int(m) < t else 0)
        assert state.concept.evaluate(x) == label


def test_gen_ex_well_spacing_usually_holds_at_ell32():
    scheme = build_scheme("escrow", 32)
    flags = []
    for seed in range(30):
        state, _ = gen_ex(scheme, 50, np.random.default_rng(seed))
        flags.append(state.well_spaced)
    assert all(flags)


def test_gen_ex_well_spacing_fails_under_pigeonhole_pressure():
    scheme = build_scheme("escrow", 2)
    hits = 0
    for seed in range(40):
        with pytest.warns(UserWarning):
            state, _ = gen_ex(scheme, 2, np.random.default_rng(seed))
        hits += not state.well_spaced
    assert hits > 10


def test_gen_ex_sorted_is_permutation_of_raw(rng):
    state, _ = gen_ex(build_scheme("escrow", 24), 20, rng)
    sorted_messages = state.bucket_bounds[1:-1]  # m_1 <= ... <= m_n
    assert sorted(state.raw_messages) == sorted_messages
    recon = [state.raw_messages[i] for i in state.sorted_to_raw]
    assert recon == sorted_messages


def _numpy_draw_buckets(big_n, n, rng):
    """``draw_buckets`` as it was written on numpy arrays, kept as the reference."""
    raw = rng.integers(0, big_n, size=n)
    order = np.argsort(raw, kind="stable")
    bounds = np.concatenate(([0], raw[order], [big_n - 1]))
    return raw.tolist(), order.tolist(), bounds.tolist(), bool(np.all(np.diff(bounds) > 1))


def _check_draw_buckets(big_n, n, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_buckets(big_n, n, rng)
    assert got == _numpy_draw_buckets(big_n, n, reference)
    assert all(type(v) is int for part in got[:3] for v in part)
    assert rng.integers(0, 2**63) == reference.integers(0, 2**63)
    return got


@given(
    big_n=st.integers(1, 6) | st.integers(7, 2**62),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
def test_draw_buckets_matches_the_numpy_reference(big_n, n, seed):
    _check_draw_buckets(big_n, n, seed)


def test_draw_buckets_matches_the_numpy_reference_on_tiny_domains():
    # equal draws keep their draw order, and draws of 0 or N-1 touch a sentinel
    zeros = tops = ties = 0
    for seed in range(60):
        big_n = 3 + seed % 4
        raw, order, _, well_spaced = _check_draw_buckets(big_n, 5, seed)
        assert not well_spaced
        zeros += 0 in raw
        tops += big_n - 1 in raw
        ties += any(raw[a] == raw[b] for a, b in zip(order, order[1:]))
    assert zeros and tops and ties


def test_sample_without_replaces_one_slot(rng):
    scheme = build_scheme("escrow", 24)
    state, sample = gen_ex(scheme, 10, rng)
    replaced = sample_without(state, sample, 4)
    assert len(replaced) == 10
    assert replaced[3] == (state.junk_example, 1)
    assert scheme.dec(state.concept.key.sk, state.junk_example.ct) == 0
    for pos in range(10):
        if pos != 3:
            assert replaced[pos] == sample[pos]
    with pytest.raises(ValueError):
        sample_without(state, sample, 0)
    with pytest.raises(ValueError):
        sample_without(state, sample, 11)


# -- estimator constant ---------------------------------------------------------


def test_concentration_sample_count_formula():
    # K = ceil((8 n^2 / gamma^2) ln(9 n / xi)); at (10, 0.1, 0.1) the factor
    # is 80000 and ln(900) = 6.8023947..., so K = ceil(544191.581) = 544192
    assert concentration_sample_count(10, 0.1, 0.1) == 544192
    assert concentration_sample_count(10, 0.1, 0.1) == math.ceil(80000 * math.log(900))


def test_concentration_sample_count_validates():
    with pytest.raises(ValueError):
        concentration_sample_count(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        concentration_sample_count(10, 0.0, 0.1)


# -- accusation rule -------------------------------------------------------------


def test_accusation_rule_frozen_cases():
    est = np.array([1.0, 1.0, 0.0, 0.0])
    assert accuse_from_estimates(est, gamma=0.3, n=3) == 2  # unique gap at i=2
    assert accuse_from_estimates(np.full(5, 0.4), gamma=0.3, n=4) is None
    est = np.array([0.9, 0.5, 0.1])
    assert accuse_from_estimates(est, gamma=0.2, n=2) == 1  # least qualifying


@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=12),
    st.floats(0.01, 0.5),
)
@settings(max_examples=300)
def test_accusation_rule_matches_brute_force(values, gamma):
    est = np.array(values)
    n = len(values) - 1
    got = accuse_from_estimates(est, gamma, n)
    qualifying = [
        i for i in range(1, n + 1) if est[i - 1] - est[i] >= gamma / n
    ]
    assert got == (min(qualifying) if qualifying else None)


# -- bucket estimates -------------------------------------------------------------


def test_estimates_all_zero_hypothesis(rng):
    state, _ = gen_ex(build_scheme("escrow", 24), 8, rng)
    est, k, conforming, degraded = estimate_bucket_probs(
        state, AllZeroesHypothesis(), 0.5, 0.5, rng, k_cap=100
    )
    assert est == [0.0] * 9
    assert k == 100 and not conforming


def test_estimates_true_concept_step_shape(rng):
    # the target concept accepts everything below t and nothing above; the
    # straddling bucket's rate equals its exact interval overlap with [0, t)
    scheme = build_scheme("escrow", 20)
    state, _ = gen_ex(scheme, 10, rng)
    concept = state.concept

    class Truth:
        def evaluate(self, x):
            return concept.evaluate(x)

    est, _, _, _ = estimate_bucket_probs(state, Truth(), 0.5, 0.5, rng, k_cap=400)
    bounds = state.bucket_bounds
    t = concept.t
    for i in range(state.n + 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if hi <= lo:
            continue
        overlap = max(0, min(hi, t) - lo) / (hi - lo)
        assert abs(est[i] - overlap) <= 0.12  # binomial noise at K=400


def test_trace_accuses_anchor_of_memorized_example(rng):
    scheme = build_scheme("escrow", 24)
    state, sample = gen_ex(scheme, 15, rng)
    positives = [j for j, (_, label) in enumerate(sample) if label == 1]
    target = positives[len(positives) // 2]
    x, _ = sample[target]
    memorize = ComparatorHypothesis(scheme, x.params, x.ct)
    verdict = trace_ex(state, memorize, 0.45, 0.05, rng, k_cap=300)
    assert verdict.accused == target + 1


def test_trace_determinism_given_estimates():
    est = np.array([1.0, 0.8, 0.75, 0.2, 0.1])
    assert accuse_from_estimates(est, 0.4, 4) == accuse_from_estimates(est, 0.4, 4)


# -- gap existence (synthetic) -----------------------------------------------------


def _synthetic_error(p):
    """Error of a bucket-response vector with equal-width buckets split
    evenly below/above the threshold."""
    k = len(p) // 2
    below = sum(1 - v for v in p[:k]) / len(p)
    above = sum(v for v in p[k:]) / len(p)
    return below + above


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=12))
@settings(max_examples=500)
def test_gap_existence_on_synthetic_vectors(values):
    if len(values) % 2:
        values = values[:-1]
    gamma = 0.1
    n = len(values) - 1
    if _synthetic_error(values) <= 0.5 - gamma:
        best = max(values[i] - values[i + 1] for i in range(n))
        assert best >= 2 * gamma / n


# -- dp bound ----------------------------------------------------------------------


def test_dp_bound_frozen_value():
    got = dp_bound(0.05, 0.001, 100, 0.1)
    # independent arithmetic path: (1 - 0.05 - 0.001)/100 - e^0.1/1000
    want = 0.949 / 100 - math.exp(0.1) * 0.001
    assert abs(got - want) < 1e-15
    assert f"{got:.6f}" == "0.008385" and got == pytest.approx(0.0083848, abs=5e-7)


def test_dp_bound_xi_zero():
    assert dp_bound(0.25, 0.0, 10, 5.0) == pytest.approx(0.075)


def test_dp_bound_flags_no_contradiction():
    assert dp_bound(0.7, 0.4, 10, 0.1) <= 0.0


def test_dp_bound_validates():
    with pytest.raises(ValueError):
        dp_bound(0.05, 0.001, 0, 0.1)
    with pytest.raises(ValueError):
        dp_bound(-0.1, 0.001, 10, 0.1)


# -- experiments (reduced smoke; full scale in acceptance) --------------------------


def test_completeness_smoke(rng):
    scheme = build_scheme("escrow", 24)
    learner = lambda sample: pac_learn(scheme, sample)
    rows = completeness_experiment(
        scheme, 12, learner, alpha=0.05, gamma=0.45, xi=0.05, trials=4, rng=rng, k_cap=150
    )
    assert len(rows) == 4
    assert all(r["accused"] is not None for r in rows)
    assert not any(r["good_and_untraced"] for r in rows)
    assert capped_sample_count(12, 0.45, 0.05, k_cap=150) == (150, False)


def test_completeness_all_zeroes_learner_is_not_good(rng):
    scheme = build_scheme("escrow", 24)
    learner = lambda sample: AllZeroesHypothesis()
    rows = completeness_experiment(
        scheme, 12, learner, alpha=0.05, gamma=0.45, xi=0.05, trials=3, rng=rng, k_cap=100
    )
    assert len(rows) == 3
    assert not any(r["good"] for r in rows)  # error ~ 0.5, far above alpha
    assert not any(r["good_and_untraced"] for r in rows)


def test_soundness_smoke(rng):
    scheme = build_scheme("escrow", 24)
    learner = lambda sample: pac_learn(scheme, sample)
    rows = soundness_experiment(
        scheme, 12, learner, drop_index=5, gamma=0.45, xi=0.05, trials=6, rng=rng, k_cap=150
    )
    assert len(rows) == 6
    assert not any(r["accused"] == 5 for r in rows)


def test_soundness_input_ignoring_learner(rng):
    # a learner that ignores its sample accuses independently of the drop
    scheme = build_scheme("escrow", 24)
    fixed_key = scheme.gen(np.random.default_rng(999))

    class FixedZero:
        def evaluate(self, x):
            return 0

    learner = lambda sample: FixedZero()
    rows = soundness_experiment(
        scheme, 10, learner, drop_index=3, gamma=0.45, xi=0.05, trials=5, rng=rng, k_cap=100
    )
    assert len(rows) == 5
    assert sum(r["accused"] == 3 for r in rows) / len(rows) <= 1 / 10 + 0.2
