"""Encrypted-threshold concepts, the comparator learner, error measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orelearn.encthresh import (
    AllZeroesHypothesis,
    ComparatorHypothesis,
    EncThreshConcept,
    Example,
    MalformedMixtureDistribution,
    PointMassDistribution,
    UniformValidDistribution,
    WrongParamsMixtureDistribution,
    empirical_error,
    labeled_sample,
    make_distribution,
    pac_learn,
    random_concept,
    required_sample_size,
)
from orelearn.opf import OpfOre
from test_contract import build_scheme


def _concept(rng, ell=8, t=None):
    scheme = build_scheme("escrow", ell)
    key = scheme.gen(rng)
    t = scheme.domain_size // 2 if t is None else t
    return EncThreshConcept(scheme=scheme, t=t, key=key)


# -- concept evaluation -------------------------------------------------------


def test_concept_accepts_below_threshold(rng):
    concept = _concept(rng, t=128)
    assert concept.evaluate(concept.encrypt_example(5)) == 1
    assert concept.evaluate(concept.encrypt_example(127)) == 1
    assert concept.evaluate(concept.encrypt_example(128)) == 0


def test_concept_rejects_wrong_params(rng):
    concept = _concept(rng, t=128)
    other = concept.scheme.gen(rng)
    ct = concept.scheme.enc(other.sk, 5)
    assert concept.evaluate(Example(other.params, ct)) == 0


def test_concept_rejects_undecryptable_bytes(rng):
    concept = _concept(rng, t=128)
    for _ in range(100):
        blob = bytes(rng.bytes(int(rng.integers(1, 64))))
        assert concept.evaluate(Example(concept.key.params, blob)) == 0


def test_threshold_bounds_validated(rng):
    scheme = build_scheme("escrow", 8)
    key = scheme.gen(rng)
    EncThreshConcept(scheme=scheme, t=0, key=key)
    EncThreshConcept(scheme=scheme, t=256, key=key)
    with pytest.raises(ValueError):
        EncThreshConcept(scheme=scheme, t=257, key=key)


# -- sample size --------------------------------------------------------------


def test_required_sample_size_frozen_values():
    assert required_sample_size(0.05, 0.05) == 60  # ceil(ln(20)/0.05) = ceil(59.91)
    assert required_sample_size(0.5, 1 / math.e) == 2
    assert required_sample_size(0.1, 0.01) == 47  # ceil(ln(100)/0.1) = ceil(46.05)


def test_required_sample_size_rejects_bad_inputs():
    for bad in ((0, 0.5), (0.5, 0), (1, 0.5), (0.5, 1)):
        with pytest.raises(ValueError):
            required_sample_size(*bad)


# -- learner ------------------------------------------------------------------


def test_learner_returns_all_zeroes_without_positives(rng):
    concept = _concept(rng, t=0)
    dist = UniformValidDistribution(concept)
    sample = labeled_sample(concept, dist, 30, rng)
    assert all(label == 0 for _, label in sample)
    h = pac_learn(concept.scheme, sample)
    assert isinstance(h, AllZeroesHypothesis)


def test_learner_anchors_at_maximal_positive(rng):
    concept = _concept(rng, t=128)
    sample = [(concept.encrypt_example(m), 1) for m in (3, 9, 6)]
    sample += [(concept.encrypt_example(m), 0) for m in (200, 150)]
    h = pac_learn(concept.scheme, sample)
    assert isinstance(h, ComparatorHypothesis)
    assert concept.scheme.dec(concept.key.sk, h.anchor) == 9


def test_learner_single_positive_anchor(rng):
    concept = _concept(rng, t=128)
    sample = [(concept.encrypt_example(42), 1)]
    h = pac_learn(concept.scheme, sample)
    assert concept.scheme.dec(concept.key.sk, h.anchor) == 42


def test_learner_deterministic(rng):
    concept = _concept(rng, t=100)
    dist = UniformValidDistribution(concept)
    sample = labeled_sample(concept, dist, 25, rng)
    h1 = pac_learn(concept.scheme, sample)
    h2 = pac_learn(concept.scheme, sample)
    assert type(h1) is type(h2)
    if isinstance(h1, ComparatorHypothesis):
        assert h1.anchor == h2.anchor


def test_one_sided_error_exhaustive_ell6(rng):
    scheme = build_scheme("escrow", 6)
    key = scheme.gen(rng)
    concept = EncThreshConcept(scheme=scheme, t=33, key=key)
    dist = UniformValidDistribution(concept)
    sample = labeled_sample(concept, dist, 20, rng)
    h = pac_learn(scheme, sample)
    for m in range(64):
        x = concept.encrypt_example(m)
        assert h.evaluate(x) <= concept.evaluate(x)
    for _ in range(50):  # malformed probes too
        x = Example(key.params, bytes(rng.bytes(30)))
        assert h.evaluate(x) <= concept.evaluate(x)


def test_monotone_nesting_exhaustive_ell6(rng):
    scheme = build_scheme("escrow", 6)
    key = scheme.gen(rng)
    concepts = [EncThreshConcept(scheme=scheme, t=t, key=key) for t in (0, 10, 33, 64)]
    xs = [Example(key.params, scheme.enc(key.sk, m)) for m in range(64)]
    xs += [Example(key.params, bytes(rng.bytes(20))) for _ in range(20)]
    for lo, hi in zip(concepts, concepts[1:]):
        for x in xs:
            assert lo.evaluate(x) <= hi.evaluate(x)


# -- error measurement --------------------------------------------------------


def test_empirical_error_self_agreement(rng):
    concept = _concept(rng, t=77)
    points = [concept.encrypt_example(m) for m in (1, 50, 76, 77, 200)]
    dist = PointMassDistribution(points, [1, 1, 1, 1, 1])

    class TruthTable:
        def evaluate(self, x):
            return concept.evaluate(x)

    assert empirical_error(TruthTable(), concept, dist, 200, rng) == 0.0


def test_point_mass_draw_above_the_rounded_cumulative_weights_is_the_last_point():
    # seven equal weights sum, normalized, to 0.9999999999999998
    points = [f"x{i}" for i in range(7)]
    dist = PointMassDistribution(points, [1] * 7)
    assert dist._cum[-1] < np.nextafter(1.0, 0.0)

    class TopDraw:
        def random(self):
            return np.nextafter(1.0, 0.0)

    assert dist.sample(TopDraw()) == "x6"


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@given(
    st.lists(st.integers(0, 3) | st.floats(0.0, 1e3), min_size=1, max_size=12).filter(any),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200)
def test_point_mass_draw_matches_searchsorted_of_cumsum(weights, seed):
    # the draw as it was written on numpy arrays, kept as the reference;
    # zero weights tie cumulative weights, and the edges probe each tie
    points = list(range(len(weights)))
    dist = PointMassDistribution(points, weights)
    cum = np.cumsum(dist.weights)
    edges = [0.0, *cum.tolist(), *np.nextafter(cum, 0.0).tolist(), *np.nextafter(cum, 1.0).tolist()]
    draws = np.random.default_rng(seed).random(20).tolist()
    for u in edges + draws:
        want = points[min(int(np.searchsorted(cum, u)), len(points) - 1)]
        assert dist.sample(_FixedDraw(u)) == want


@given(st.lists(st.floats() | st.floats(0.0, 1e3) | st.sampled_from([0.0, 1.0, -1.0]), min_size=1, max_size=8))
@settings(max_examples=300)
def test_point_mass_weights_must_be_probabilities(weights):
    # zero weights are legal; a negative, NaN or infinite weight, or a total
    # of zero, would give exact_error and the SQ oracle mass outside [0, 1]
    points = list(range(len(weights)))
    if not (all(math.isfinite(w) and w >= 0 for w in weights) and 0 < sum(weights) < math.inf):
        with pytest.raises(ValueError):
            PointMassDistribution(points, weights)
        return
    dist = PointMassDistribution(points, weights)
    assert all(0.0 <= w <= 1.0 for w in dist.weights)
    assert math.isclose(sum(dist.weights), 1.0)


def test_empirical_error_all_zeroes_on_positive_point_mass(rng):
    concept = _concept(rng, t=256)  # every message is positive
    dist = PointMassDistribution([concept.encrypt_example(3)], [1.0])
    assert empirical_error(AllZeroesHypothesis(), concept, dist, 50, rng) == 1.0


def test_empirical_error_requires_samples(rng):
    concept = _concept(rng)
    dist = UniformValidDistribution(concept)
    with pytest.raises(ValueError):
        empirical_error(AllZeroesHypothesis(), concept, dist, 0, rng)


def test_exact_error_matches_empirical_uniform(rng):
    concept = _concept(rng, ell=8, t=100)
    dist = UniformValidDistribution(concept)
    sample = labeled_sample(concept, dist, 40, rng)
    h = pac_learn(concept.scheme, sample)
    exact = dist.exact_error(h, concept)
    emp = empirical_error(h, concept, dist, 4000, rng)
    assert abs(exact - emp) < 0.03


def test_exact_error_matches_empirical_on_mixtures(rng):
    concept = _concept(rng, ell=8, t=100)
    for dist in (
        MalformedMixtureDistribution(concept),
        WrongParamsMixtureDistribution(concept, concept.scheme.gen(rng)),
    ):
        sample = labeled_sample(concept, dist, 60, rng)
        h = pac_learn(concept.scheme, sample)
        exact = dist.exact_error(h, concept)
        emp = empirical_error(h, concept, dist, 4000, rng)
        assert abs(exact - emp) < 0.03


def test_exact_error_rejects_weak_scheme(rng):
    scheme = OpfOre(ell=8)
    key = scheme.gen(rng)
    concept = EncThreshConcept(scheme=scheme, t=100, key=key)
    with pytest.raises(TypeError):
        UniformValidDistribution(concept).exact_error(AllZeroesHypothesis(), concept)


def test_make_distribution_families(rng):
    concept = _concept(rng, ell=10)
    for family in ("uniform", "malformed", "wrongparams", "pointmass"):
        dist = make_distribution(family, concept, rng)
        x = dist.sample(rng)
        assert isinstance(x, Example)
    with pytest.raises(ValueError):
        make_distribution("nope", concept, rng)


def test_error_bound_smoke_uniform(rng):
    # reduced version of the acceptance run: error <= alpha in most trials
    scheme = build_scheme("escrow", 16)
    alpha = beta = 0.05
    n = required_sample_size(alpha, beta)
    good = 0
    trials = 40
    for _ in range(trials):
        concept = random_concept(scheme, rng)
        dist = UniformValidDistribution(concept)
        h = pac_learn(scheme, labeled_sample(concept, dist, n, rng))
        good += dist.exact_error(h, concept) <= alpha
    assert good / trials >= 0.85
