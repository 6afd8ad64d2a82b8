#!/usr/bin/env python3
"""Signature-validity concepts: representation learning implies forgery.

Every positive triple (vk, message, signature) represents the same
function — "does it verify under vk?" — so returning any positive example
learns the concept exactly.  But the returned triple *is* the
representation, and tracing matches it byte-for-byte against the sample:
producing an untraceable good representation would mean forging a
signature.  The honest learner therefore always traces back to its
sample, never wins the weak forgery game, and never implicates an example
it was not shown.
"""

import numpy as np

from orelearn.reident import sample_without
from orelearn.validsig import (
    Ed25519Scheme,
    SigExampleDistribution,
    representation_error,
    run_weak_forgery_game,
    validsig_gen_ex,
    validsig_learn,
    validsig_trace_ex,
)

rng = np.random.default_rng(53)
sig = Ed25519Scheme()

print("=== learning (error is exact; triples with the right key are exact) ===")
state, _ = validsig_gen_ex(sig, 1, 64, rng)
dist = SigExampleDistribution(state, positive_weight=0.5, rng=rng)
sample = [(x, state.concept.evaluate(x)) for x in (dist.sample(rng) for _ in range(60))]
rep = validsig_learn(sample)
print("learned representation error:",
      representation_error(rep, state.concept, dist.positive_mass()))

print()
print("=== tracing: the representation is always a sample element ===")
hits = 0
for _ in range(50):
    state, sample = validsig_gen_ex(sig, 20, 64, rng)
    rep = validsig_learn(sample)
    hits += validsig_trace_ex(state, rep) is not None
print(f"traced in {hits}/50 runs on the full sample")

drop = 9
accusations = 0
for _ in range(50):
    state, sample = validsig_gen_ex(sig, 20, 64, rng)
    rep = validsig_learn(sample_without(state, sample, drop))
    accusations += validsig_trace_ex(state, rep) == drop
print(f"dropped index {drop} accused in {accusations}/50 runs without it")

print()
print("=== the weak forgery game ===")
result = run_weak_forgery_game(sig, validsig_learn, 20, 64, rng)
print("honest learner game value:", result["value"], "(it replays an oracle pair)")


class LeakyEd25519(Ed25519Scheme):
    def gen(self, rng_):
        sk, vk = super().gen(rng_)
        self.last_sk = sk
        return sk, vk


leaky = LeakyEd25519()


def key_stealing_learner(sample):
    from orelearn.validsig import SigTriple

    m = b"fresh!!!"
    return SigTriple(sample[0][0].vk, m, leaky.sign(leaky.last_sk, m))


result = run_weak_forgery_game(leaky, key_stealing_learner, 20, 64, rng)
print("key-stealing stub game value:", result["value"], "(validates the harness)")
