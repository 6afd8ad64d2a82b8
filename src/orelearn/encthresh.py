"""Encrypted-threshold concepts over an ORE scheme, and their PAC learner.

A concept is indexed by a threshold t and the coin string r of a key
generation run: it labels an example (params, c) positive exactly when the
params match the generated ones, the ciphertext decrypts, and the
plaintext is below t.  Thresholds range over {0, ..., N} for N = 2**ell,
so both the all-negative (t=0) and the all-positive (t=N) concepts exist.

The learner never sees a secret key.  It finds the heavy public
parameters among its positive examples, then anchors a comparator at the
maximal positive ciphertext under the public comparison, yielding a
hypothesis with one-sided error (it accepts only examples the target also
accepts, provided comparison is strongly correct).  Sample complexity is
n = ceil(ln(1/beta) / alpha); natural log, matching the coupon-collector
style failure bound (1 - alpha)**n <= exp(-alpha * n) <= beta.

Example distributions deliberately include families that place weight on
malformed ciphertexts and on foreign public parameters: learnability on
those is precisely what strong comparison correctness buys.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .core import BOT, KeyMaterial, Ordering3, OreScheme, PublicParams, mutate_ciphertext
from .strengthen import StrengthenedOre

__all__ = [
    "Example",
    "EncThreshConcept",
    "random_concept",
    "AllZeroesHypothesis",
    "ComparatorHypothesis",
    "DecryptThresholdHypothesis",
    "required_sample_size",
    "pac_learn",
    "labeled_sample",
    "empirical_error",
    "hypothesis_error",
    "UniformValidDistribution",
    "MalformedMixtureDistribution",
    "WrongParamsMixtureDistribution",
    "PointMassDistribution",
    "random_point_mass",
    "make_distribution",
    "DISTRIBUTION_FAMILIES",
    "POINT_MASS_POINTS",
]


class Example(NamedTuple):
    """An instance: public parameters plus an arbitrary ciphertext string."""

    params: PublicParams
    ct: bytes


@dataclass(frozen=True)
class EncThreshConcept:
    """f(params, c) = 1 iff params match, c decrypts, and plaintext < t."""

    scheme: OreScheme
    t: int
    key: KeyMaterial

    def __post_init__(self):
        if not (0 <= self.t <= self.scheme.domain_size):
            raise ValueError(f"threshold {self.t} outside [0, 2**{self.scheme.ell}]")

    def evaluate(self, example: Example) -> int:
        if example.params != self.key.params:
            return 0
        m = self.scheme.dec(self.key.sk, example.ct)
        if m is BOT:
            return 0
        return 1 if m < self.t else 0

    def encrypt_example(self, m: int) -> Example:
        return Example(self.key.params, self.scheme.enc(self.key.sk, m))

    def encrypt_examples(self, ms: Sequence[int]) -> list[Example]:
        """``[self.encrypt_example(m) for m in ms]`` through one ``enc_many``."""
        return [Example(self.key.params, ct) for ct in self.scheme.enc_many(self.key.sk, ms)]


def random_concept(
    scheme: OreScheme, rng: np.random.Generator, t: "int | None" = None
) -> EncThreshConcept:
    key = scheme.gen(rng)
    if t is None:
        t = int(rng.integers(0, scheme.domain_size + 1))
    return EncThreshConcept(scheme=scheme, t=t, key=key)


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


class AllZeroesHypothesis:
    kind = "all-zeroes"

    def evaluate(self, example: Example) -> int:
        return 0


class ComparatorHypothesis:
    """Accepts examples whose ciphertext compares <= to the anchor ciphertext
    under the stored public parameters.  A BOT comparison rejects."""

    kind = "comparator"

    __slots__ = ("scheme", "params", "anchor")

    def __init__(self, scheme: OreScheme, params: PublicParams, anchor: bytes):
        self.scheme = scheme
        self.params = params
        self.anchor = anchor

    def evaluate(self, example: Example) -> int:
        return self.evaluate_many([example])[0]

    def evaluate_many(self, examples: Sequence[Example]) -> list[int]:
        """Each example's verdict, from one ``comp_many`` batch against the anchor."""
        own = [x.params == self.params for x in examples]
        verdicts = iter(
            self.scheme.comp_many(
                self.params, [x.ct for x, ok in zip(examples, own) if ok], self.anchor
            )
        )
        return [
            1 if ok and next(verdicts) in (Ordering3.LT, Ordering3.EQ) else 0
            for ok in own
        ]

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params.data.hex(),
            "anchor": self.anchor.hex(),
        }


class DecryptThresholdHypothesis:
    """Accepts examples that decrypt below a threshold under a held key.

    This is the representation produced by the statistical-query learner,
    which recovers a functionally equivalent secret key rather than a
    sample anchor.  ``evaluate`` is ``accepts(decrypt(example))``; the
    learner asks its threshold queries through ``decrypt`` as their view,
    so an oracle that kept those view values can score the hypothesis
    without decrypting again.
    """

    kind = "threshold"

    __slots__ = ("scheme", "params", "sk", "t")

    def __init__(self, scheme: OreScheme, params: PublicParams, sk, t: int):
        self.scheme = scheme
        self.params = params
        self.sk = sk
        self.t = t

    def decrypt(self, example: Example, label=None):
        """The plaintext under the held key; BOT under foreign params.  The
        unused label makes this a statistical-query view."""
        if example.params != self.params:
            return BOT
        return self.scheme.dec(self.sk, example.ct)

    def accepts(self, m) -> int:
        return 1 if m is not BOT and m < self.t else 0

    def evaluate(self, example: Example) -> int:
        return self.accepts(self.decrypt(example))


# ---------------------------------------------------------------------------
# Learner
# ---------------------------------------------------------------------------


def required_sample_size(alpha: float, beta: float) -> int:
    """n = ceil(ln(1/beta) / alpha)."""
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("alpha and beta must lie in (0, 1)")
    return math.ceil(math.log(1.0 / beta) / alpha)


def pac_learn(
    scheme: OreScheme, samples: Sequence[tuple[Example, int]]
) -> "AllZeroesHypothesis | ComparatorHypothesis":
    """Comparator learner: anchor at the maximal positive example.

    With no positive example, returns the all-zeroes hypothesis.  Otherwise
    takes the parameters of the first positive example, collects the
    positive examples sharing them, and scans for an anchor that no other
    collected ciphertext compares greater than; BOT comparisons never
    displace the current anchor, so the scan is deterministic.
    """
    params_star = None
    for example, label in samples:
        if label == 1:
            params_star = example.params
            break
    if params_star is None:
        return AllZeroesHypothesis()
    group = [ex.ct for ex, label in samples if label == 1 and ex.params == params_star]
    anchor = group[0]
    for ct in group[1:]:
        if scheme.comp(params_star, ct, anchor) is Ordering3.GT:
            anchor = ct
    return ComparatorHypothesis(scheme, params_star, anchor)


def labeled_sample(concept, dist, n: int, rng: np.random.Generator) -> list[tuple]:
    """n draws of ``dist``, each labeled by ``concept.evaluate``; any concept
    and distribution with those methods, signature-validity ones included."""
    out = []
    for _ in range(n):
        x = dist.sample(rng)
        out.append((x, concept.evaluate(x)))
    return out


# ---------------------------------------------------------------------------
# Error measurement
# ---------------------------------------------------------------------------


def empirical_error(
    hypothesis, concept: EncThreshConcept, dist, samples: int, rng: np.random.Generator
) -> float:
    """Disagreement rate of hypothesis vs concept on fresh i.i.d. draws."""
    if samples < 1:
        raise ValueError("need at least one sample")
    bad = sum(hypothesis.evaluate(x) != y for x, y in labeled_sample(concept, dist, samples, rng))
    return bad / samples


def hypothesis_error(
    hypothesis, concept: EncThreshConcept, dist, rng: np.random.Generator
) -> float:
    """The exact error where ``dist.exact_error`` has a closed form, else the
    empirical error over 2000 fresh draws (a weak scheme, or a hypothesis
    with no closed form)."""
    try:
        return dist.exact_error(hypothesis, concept)
    except TypeError:
        return empirical_error(hypothesis, concept, dist, 2000, rng)


class UniformValidDistribution:
    """Encryptions of uniform messages under the concept's own key.

    The two mixtures below subclass it: each draws from this family with
    probability ``valid_weight`` and elsewhere puts mass that the concept
    and every hypothesis reject under a strongly correct scheme, so all
    three share one ``exact_error``.
    """

    valid_weight = 1.0

    def __init__(self, concept: EncThreshConcept):
        self.concept = concept

    def sample(self, rng: np.random.Generator) -> Example:
        m = int(rng.integers(0, self.concept.scheme.domain_size))
        return self.concept.encrypt_example(m)

    def exact_error(self, hypothesis, concept: EncThreshConcept) -> float:
        """Closed-form error: ``valid_weight`` times the error on uniform
        valid encryptions.

        Requires a strongly correct scheme, under which a comparator anchored
        at a ciphertext of m_a accepts exactly the encryptions of {0..m_a};
        raises TypeError for a weak scheme or a hypothesis with no closed form.
        """
        if not isinstance(concept.scheme, StrengthenedOre):
            raise TypeError(
                "exact error formulas assume a strongly correct scheme; "
                "use empirical_error for weak schemes"
            )
        t = concept.t
        if isinstance(hypothesis, AllZeroesHypothesis):
            wrong = t
        elif isinstance(hypothesis, ComparatorHypothesis):
            anchor_m = BOT
            if hypothesis.params == concept.key.params:
                anchor_m = concept.scheme.dec(concept.key.sk, hypothesis.anchor)
            # a foreign-params or BOT anchor accepts nothing under strong correctness
            wrong = t if anchor_m is BOT else abs((anchor_m + 1) - t)
        elif isinstance(hypothesis, DecryptThresholdHypothesis):
            wrong = abs(hypothesis.t - t) if hypothesis.params == concept.key.params else t
        else:
            raise TypeError(f"no closed-form error for {type(hypothesis).__name__}")
        return self.valid_weight * (wrong / concept.scheme.domain_size)


# core.MUTATION_CLASSES but "valid", drawn with equal weights in this order,
# which the pinned pac digests fix
_MALFORMED_KINDS = ("random", "bitflip", "truncate")


class MalformedMixtureDistribution(UniformValidDistribution):
    """Mostly malformed ciphertexts (still carrying the right params).

    The malformed mass is where weakly correct comparison falls apart;
    under a strongly correct scheme both the concept and any comparator
    hypothesis reject it, so only the valid slice (weight 0.3) carries error.
    """

    valid_weight = 0.3

    def sample(self, rng: np.random.Generator) -> Example:
        m = int(rng.integers(0, self.concept.scheme.domain_size))
        ex = self.concept.encrypt_example(m)
        if rng.random() < self.valid_weight:
            return ex
        kind = _MALFORMED_KINDS[int(rng.integers(0, 3))]
        return Example(ex.params, mutate_ciphertext(ex.ct, kind, rng))


class WrongParamsMixtureDistribution(UniformValidDistribution):
    """Mostly examples under a decoy key's parameters.

    Both the concept and any hypothesis anchored at the real parameters
    reject foreign-params examples, so only the valid slice (weight 0.3)
    carries error.
    """

    valid_weight = 0.3

    def __init__(self, concept: EncThreshConcept, decoy: KeyMaterial):
        if decoy.params == concept.key.params:
            raise ValueError("decoy key collides with the concept key")
        super().__init__(concept)
        self.decoy = decoy

    def sample(self, rng: np.random.Generator) -> Example:
        m = int(rng.integers(0, self.concept.scheme.domain_size))
        if rng.random() < self.valid_weight:
            return self.concept.encrypt_example(m)
        return Example(self.decoy.params, self.concept.scheme.enc(self.decoy.sk, m))


class PointMassDistribution:
    """A finite-support distribution given explicitly as (example, weight)."""

    def __init__(self, points: Sequence[Example], weights: Sequence[float]):
        if len(points) != len(weights) or not points:
            raise ValueError("need matching nonempty points and weights")
        total = float(sum(weights))
        if not (all(0.0 <= w < math.inf for w in weights) and 0.0 < total < math.inf):
            raise ValueError("weights must be finite and nonnegative with a positive finite sum")
        self.points = list(points)
        self.weights = [w / total for w in weights]
        self._cum = list(accumulate(self.weights))

    def sample(self, rng: np.random.Generator) -> Example:
        # rounding can leave the last cumulative weight below a draw: the last point's
        i = bisect_left(self._cum, rng.random())
        return self.points[min(i, len(self.points) - 1)]

    def exact_error(self, hypothesis, concept: EncThreshConcept) -> float:
        return sum(
            w
            for x, w in zip(self.points, self.weights)
            if hypothesis.evaluate(x) != concept.evaluate(x)
        )

    def support(self):
        return list(zip(self.points, self.weights))


def random_point_mass(
    concept: EncThreshConcept, size: int, rng: np.random.Generator
) -> PointMassDistribution:
    """Dirichlet weights on the encryptions of ``size`` distinct uniform messages."""
    ms = rng.choice(concept.scheme.domain_size, size=size, replace=False)
    points = concept.encrypt_examples(ms.tolist())
    return PointMassDistribution(points, rng.dirichlet([1.0] * size).tolist())


DISTRIBUTION_FAMILIES = ("uniform", "malformed", "wrongparams", "pointmass")
POINT_MASS_POINTS = 8  # distinct messages carrying the pointmass family


def make_distribution(
    family: str, concept: EncThreshConcept, rng: np.random.Generator
):
    """Build one of the four named distribution families for a concept."""
    if family == "uniform":
        return UniformValidDistribution(concept)
    if family == "malformed":
        return MalformedMixtureDistribution(concept)
    if family == "wrongparams":
        decoy = concept.scheme.gen(rng)
        return WrongParamsMixtureDistribution(concept, decoy)
    if family == "pointmass":
        return random_point_mass(concept, POINT_MASS_POINTS, rng)
    raise ValueError(f"unknown distribution family {family!r}")
