#!/usr/bin/env python3
"""Why weak comparison correctness is not enough, and how to fix it.

The base scheme tags every ciphertext with a keyed order-preserving value
and compares tags only.  On honest ciphertexts that is always right.  But
a spliced ciphertext (the order tag of one message glued to the payload of
another) still *compares* by its tag while *decryption* refuses it, so the
public comparison and decrypt-then-compare disagree.  Wrapping the scheme
with per-ciphertext well-formedness certificates removes every such
disagreement: anything the certifier rejects is refused by both paths.
"""

import numpy as np

from orelearn.core import check_strong_correctness, check_weak_correctness, comp_ciph
from orelearn.opf import OpfOre, forge_spliced_ciphertext
from orelearn.strengthen import EscrowCertifier, SignatureCertifier, StrengthenedOre

rng = np.random.default_rng(7)

print("=== 1. the weak base scheme is fine on honest ciphertexts ===")
base = OpfOre(ell=16)
key = base.gen(rng)
pairs = [tuple(map(int, p)) for p in rng.integers(0, 2**16, size=(5000, 2))]
print("weak correctness sweep:", check_weak_correctness(base, pairs, key).summary())

print()
print("=== 2. a spliced ciphertext breaks decrypt/compare consistency ===")
witness = forge_spliced_ciphertext(base, key.sk, tag_of=60_000, payload_of=3)
probe = base.enc(key.sk, 30_000)
print("comp(spliced, enc(30000))      =", base.comp(key.params, witness, probe))
print("decrypt-then-compare           =", comp_ciph(base, key.sk, witness, probe))
report = check_strong_correctness(base, key, trials=2000, rng=rng, extra_pairs=[(witness, probe)])
print("strong-correctness fuzz sweep  =", report.summary())
print("disagreements by mutation class:", dict(sorted(report.counts_by_class.items())))

print()
print("=== 3. the certified wrapper restores the identity exactly ===")
for certifier in (EscrowCertifier(), SignatureCertifier()):
    scheme = StrengthenedOre(OpfOre(ell=16), certifier)
    skey = scheme.gen(rng)
    rep = check_strong_correctness(scheme, skey, trials=5000, rng=rng)
    print(f"{certifier.name:9s} certifier: {rep.summary()}")
print()
print("The escrow certifier is perfectly sound but simulation-only (its")
print("verification key seals the base secret key); the signature certifier")
print("is publicly verifiable with computational soundness.")
