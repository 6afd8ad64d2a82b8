"""Signature-validity concepts, tracing by triple equality, forgery game."""

import pytest

from orelearn.reident import sample_without
from orelearn.validsig import (
    Ed25519Scheme,
    SigExampleDistribution,
    SigTriple,
    random_message,
    representation_error,
    run_weak_forgery_game,
    validsig_gen_ex,
    validsig_learn,
    validsig_trace_ex,
)

ED25519_GROUP_ORDER = 2**252 + 27742317777372353535851937790883648493


# -- signature back-end -----------------------------------------------------------


def test_sign_verify_roundtrip(rng):
    sig = Ed25519Scheme()
    sk, vk = sig.gen(rng)
    for _ in range(200):
        m = random_message(64, rng)
        assert sig.ver(vk, m, sig.sign(sk, m))


def test_bitflipped_signatures_rejected(rng):
    sig = Ed25519Scheme()
    sk, vk = sig.gen(rng)
    for _ in range(200):
        m = random_message(64, rng)
        s = bytearray(sig.sign(sk, m))
        pos = int(rng.integers(0, len(s) * 8))
        s[pos // 8] ^= 1 << (pos % 8)
        assert not sig.ver(vk, m, bytes(s))


def test_verification_is_deterministic(rng):
    sig = Ed25519Scheme()
    sk, vk = sig.gen(rng)
    m = random_message(64, rng)
    s = sig.sign(sk, m)
    assert all(sig.ver(vk, m, s) for _ in range(5))


def test_scalar_rerandomization_does_not_verify(rng):
    # structural strong-unforgeability probe: adding the group order to the
    # scalar half of a signature must not yield a second verifying pair
    sig = Ed25519Scheme()
    sk, vk = sig.gen(rng)
    m = random_message(64, rng)
    s = sig.sign(sk, m)
    scalar = int.from_bytes(s[32:], "little")
    mauled = s[:32] + ((scalar + ED25519_GROUP_ORDER) % 2**256).to_bytes(32, "little")
    assert mauled != s
    assert not sig.ver(vk, m, mauled)


def test_random_message_respects_bit_length(rng):
    for ell in (1, 7, 8, 9, 63, 64):
        for _ in range(20):
            m = random_message(ell, rng)
            assert len(m) == (ell + 7) // 8
            assert int.from_bytes(m, "big") < 2**ell


# -- concept evaluation --------------------------------------------------------------


def test_evaluate_matching_triple(rng):
    sig = Ed25519Scheme()
    state, _ = validsig_gen_ex(sig, 3, 64, rng)
    concept = state.concept
    m = random_message(64, rng)
    good = SigTriple(concept.vk, m, sig.sign(state.signing_key, m))
    assert concept.evaluate(good) == 1


def test_evaluate_wrong_key(rng):
    sig = Ed25519Scheme()
    state, _ = validsig_gen_ex(sig, 3, 64, rng)
    _, other_vk = sig.gen(rng)
    x = state.examples[1]
    assert state.concept.evaluate(SigTriple(other_vk, x.message, x.sig)) == 0


def test_evaluate_corrupted_signature(rng):
    sig = Ed25519Scheme()
    state, _ = validsig_gen_ex(sig, 3, 64, rng)
    x = state.examples[1]
    for _ in range(100):
        s = bytearray(x.sig)
        pos = int(rng.integers(0, len(s) * 8))
        s[pos // 8] ^= 1 << (pos % 8)
        assert state.concept.evaluate(SigTriple(x.vk, x.message, bytes(s))) == 0


# -- learner ---------------------------------------------------------------------------


def test_learner_bottom_on_all_negative():
    assert validsig_learn([(SigTriple(b"k", b"m", b"s"), 0)] * 5) is None


def test_learner_first_positive_rule(rng):
    sig = Ed25519Scheme()
    state, sample = validsig_gen_ex(sig, 5, 64, rng)
    mixed = [(sample[0][0], 0), (sample[1][0], 1), (sample[2][0], 1)]
    assert validsig_learn(mixed) == sample[1][0]


def test_learner_output_is_positive_under_target(rng):
    sig = Ed25519Scheme()
    state, sample = validsig_gen_ex(sig, 8, 64, rng)
    rep = validsig_learn(sample)
    assert state.concept.evaluate(rep) == 1


def test_learner_success_across_distributions(rng):
    sig = Ed25519Scheme()
    alpha = 0.05
    n = 60
    for w_pos in (0.9, 0.02, 0.5):  # positive-heavy, negative-heavy, mixed
        good = 0
        trials = 30
        for _ in range(trials):
            state, _ = validsig_gen_ex(sig, 1, 64, rng)
            dist = SigExampleDistribution(state, positive_weight=w_pos, rng=rng)
            sample = [
                (x, state.concept.evaluate(x))
                for x in (dist.sample(rng) for _ in range(n))
            ]
            rep = validsig_learn(sample)
            err = representation_error(rep, state.concept, dist.positive_mass())
            good += err <= alpha
        assert good / trials >= 0.85


@pytest.mark.parametrize(
    "weight, ok",
    [(-0.5, False), (0.0, True), (0.5, True), (1.0, True), (1.5, False), (2.0, False), (float("nan"), False)],
)
def test_positive_weight_must_be_a_probability(weight, ok, rng):
    state, _ = validsig_gen_ex(Ed25519Scheme(), 1, 64, rng)
    if not ok:
        with pytest.raises(ValueError):
            SigExampleDistribution(state, positive_weight=weight, rng=rng)
        return
    dist = SigExampleDistribution(state, positive_weight=weight, rng=rng)
    assert representation_error(None, state.concept, dist.positive_mass()) == weight


# -- tracing ------------------------------------------------------------------------------


def test_trace_finds_exact_triple(rng):
    sig = Ed25519Scheme()
    state, sample = validsig_gen_ex(sig, 10, 64, rng)
    for j in (1, 5, 10):
        assert validsig_trace_ex(state, state.examples[j]) == j
    assert validsig_trace_ex(state, None) is None


def test_trace_misses_fresh_triple(rng):
    sig = Ed25519Scheme()
    state, _ = validsig_gen_ex(sig, 10, 64, rng)
    m = random_message(64, rng)
    fresh = SigTriple(state.concept.vk, m, sig.sign(state.signing_key, m))
    assert validsig_trace_ex(state, fresh) is None


def test_trace_of_learner_on_full_sample_always_hits(rng):
    sig = Ed25519Scheme()
    for _ in range(30):
        state, sample = validsig_gen_ex(sig, 12, 64, rng)
        rep = validsig_learn(sample)
        assert validsig_trace_ex(state, rep) is not None


def test_soundness_dropped_index_never_accused(rng):
    sig = Ed25519Scheme()
    drop = 7
    for _ in range(50):
        state, sample = validsig_gen_ex(sig, 12, 64, rng)
        rep = validsig_learn(sample_without(state, sample, drop))
        assert validsig_trace_ex(state, rep) != drop


def test_sample_without_bounds(rng):
    sig = Ed25519Scheme()
    state, sample = validsig_gen_ex(sig, 4, 64, rng)
    assert sample_without(state, sample, 2) == [sample[0], (state.examples[0], 1), *sample[2:]]
    with pytest.raises(ValueError):
        sample_without(state, sample, 0)
    with pytest.raises(ValueError):
        sample_without(state, sample, 5)


# -- forgery game -----------------------------------------------------------------------


def test_honest_learner_never_forges(rng):
    sig = Ed25519Scheme()
    for _ in range(30):
        result = run_weak_forgery_game(sig, validsig_learn, 10, 64, rng)
        assert result["value"] == 0


def test_bottom_learner_never_forges(rng):
    sig = Ed25519Scheme()
    result = run_weak_forgery_game(sig, lambda sample: None, 10, 64, rng)
    assert result["value"] == 0 and result["forgery"] is None


def test_key_stealing_stub_wins_the_game(rng):
    # negative control: a "learner" that signs a fresh message with a leaked
    # key must win, which validates the game harness detects real forgeries
    class LeakyEd25519(Ed25519Scheme):
        def gen(self, rng_):
            sk, vk = super().gen(rng_)
            self.last_sk = sk
            return sk, vk

    sig = LeakyEd25519()

    def stealing_learner(sample):
        vk = sample[0][0].vk
        m = b"\xee" * 8
        return SigTriple(vk, m, sig.sign(sig.last_sk, m))

    result = run_weak_forgery_game(sig, stealing_learner, 4, 64, rng)
    assert result["value"] == 1 and result["fresh"] and result["valid"]
