"""Example reidentification for encrypted-threshold concepts.

The generator fixes the middle threshold t = N/2, draws n uniform
messages, encrypts them under a fresh key, and hands the learner the
labeled sample.  Sorting the drawn messages splits the plaintext space
into buckets B_i = [m_i, m_{i+1}) between consecutive sample messages
(with sentinels m_0 = 0 and m_{n+1} = N-1).  The tracer estimates, for
each bucket, the probability that the learned hypothesis accepts a fresh
encryption from that bucket, and accuses the sample index whose message
separates the first adjacent bucket pair whose estimates drop by at least
gamma/n.  Any hypothesis with nontrivial accuracy must induce such a drop
somewhere; a hypothesis learned without example i induces one at i only
with the probability that the scheme's security is broken.

Estimates use K = ceil((8 n^2 / gamma^2) * ln(9 n / xi)) samples per
bucket, which makes all n+1 of them simultaneously gamma/(4n)-accurate
with probability at least 1 - xi/4 (Chernoff plus a union bound).  A
reduced-K mode caps the per-bucket sample count for fast runs; reports
carry a flag marking such runs as non-conforming to that analysis.

The differential-privacy consequence is quantified by ``dp_bound``: a
tracing scheme with completeness failure beta and soundness/completeness
slack xi rules out any efficient (eps, delta)-differentially private
(alpha, beta)-PAC learner with delta below (1 - beta - xi)/n - e^eps * xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encthresh import EncThreshConcept, Example, UniformValidDistribution, hypothesis_error
from .core import OreScheme, _tally_shared

__all__ = [
    "ReidentState",
    "TraceVerdict",
    "draw_buckets",
    "gen_ex",
    "sample_without",
    "concentration_sample_count",
    "capped_sample_count",
    "estimate_bucket_probs",
    "trace_ex",
    "accuse_from_estimates",
    "completeness_experiment",
    "soundness_experiment",
    "dp_bound",
    "ESTIMATE_BATCH",
]

# draws per enc_many/evaluate_many call in the bucket estimator; bounds the
# ciphertexts and examples held at once when K is in the millions
ESTIMATE_BATCH = 4096


@dataclass
class ReidentState:
    """Shared state between the generator and the tracer for one run."""

    concept: EncThreshConcept
    raw_messages: list[int]  # m'_1..m'_n in draw order
    bucket_bounds: list[int]  # 0, m_1 <= ... <= m_n, N-1; bucket i is [b_i, b_{i+1})
    sorted_to_raw: list[int]  # raw (0-based) index of each sorted position
    junk_example: Example  # encryption of m_0 = 0, labeled 1
    well_spaced: bool

    @property
    def n(self) -> int:
        return len(self.raw_messages)


@dataclass
class TraceVerdict:
    accused: "int | None"  # raw sample index in [1, n], or None for no accusation
    accused_sorted: "int | None"  # sorted position of the separating message
    estimates: list[float]  # p_hat_0 .. p_hat_n
    degraded: bool = False  # True when empty buckets inherited estimates


def draw_buckets(
    big_n: int, n: int, rng: np.random.Generator
) -> tuple[list[int], list[int], list[int], bool]:
    """Draw n uniform messages of {0, ..., N-1} and the buckets they split.

    Returns the draws in draw order, their stable sort order, the n+2
    bucket bounds (0, m_1, ..., m_n, N-1) and whether the draw is
    well-spaced: every gap between bounds, sentinels included, exceeds one.
    """
    raw = rng.integers(0, big_n, size=n).tolist()
    order = sorted(range(n), key=raw.__getitem__)
    bounds = [0, *sorted(raw), big_n - 1]
    return raw, order, bounds, all(hi - lo > 1 for lo, hi in zip(bounds, bounds[1:]))


def gen_ex(
    scheme: OreScheme, n: int, rng: np.random.Generator
) -> tuple[ReidentState, list[tuple[Example, int]]]:
    """Draw the concept (t = N/2), the sample, and the junk example.

    Warns when n^2 approaches the domain size, since the well-spacing of
    uniform draws is then at risk; the returned state records whether all
    gaps (sentinels included) exceed one.
    """
    big_n = scheme.domain_size
    if n < 1:
        raise ValueError("need n >= 1")
    if n * n >= big_n // 100:
        import warnings

        warnings.warn(
            f"n^2 = {n * n} is large relative to the domain {big_n}; "
            "well-spacing of the sample is at risk",
            stacklevel=2,
        )
    key = scheme.gen(rng)
    concept = EncThreshConcept(scheme=scheme, t=big_n // 2, key=key)
    raw, order, bounds, well_spaced = draw_buckets(big_n, n, rng)
    junk, *examples = concept.encrypt_examples([0, *raw])
    state = ReidentState(
        concept=concept,
        raw_messages=raw,
        bucket_bounds=bounds,
        sorted_to_raw=order,
        junk_example=junk,
        well_spaced=well_spaced,
    )
    sample = [(x, 1 if m < concept.t else 0) for x, m in zip(examples, raw)]
    return state, sample


def sample_without(state, sample: list[tuple], i: int) -> list[tuple]:
    """The sample with position i (1-based) replaced by the state's junk
    example, labeled 1.

    Either state works: a ``ReidentState``'s junk example encrypts 0, which
    every middle-threshold concept accepts; a ``validsig.ValidSigState``'s
    is the spare signed triple x_0, which its concept accepts.
    """
    if not (1 <= i <= state.n):
        raise ValueError(f"index {i} outside [1, {state.n}]")
    out = list(sample)
    out[i - 1] = (state.junk_example, 1)
    return out


def concentration_sample_count(n: int, gamma: float, xi: float) -> int:
    """K = ceil((8 n^2 / gamma^2) * ln(9 n / xi))."""
    if n < 1 or not (0 < gamma) or not (0 < xi):
        raise ValueError("need n >= 1 and positive gamma, xi")
    return math.ceil((8.0 * n * n / (gamma * gamma)) * math.log(9.0 * n / xi))


def capped_sample_count(
    n: int, gamma: float, xi: float, k_cap: "int | None" = None
) -> tuple[int, bool]:
    """(K used, conforming): K capped at k_cap, conforming unless the cap lowers it."""
    k_exact = concentration_sample_count(n, gamma, xi)
    if k_cap is None or k_cap >= k_exact:
        return k_exact, True
    return k_cap, False


def estimate_bucket_probs(
    state: ReidentState,
    hypothesis,
    gamma: float,
    xi: float,
    rng: np.random.Generator,
    k_cap: "int | None" = None,
) -> tuple[list[float], int, bool, bool]:
    """Per-bucket acceptance estimates of the hypothesis on fresh encryptions.

    Returns (estimates, K used, conforming, degraded).  Empty buckets (only
    possible when the draw was not well-spaced) inherit the estimate of the
    nearest nonempty bucket below and set the degraded flag, mirroring the
    bookkeeping of discarding non-well-spaced runs.

    Each nonempty bucket draws its K messages from ``rng`` in bucket order,
    encrypts them and counts the hypothesis's acceptances.  Once the draws
    are fixed the buckets are independent, so ``core._tally_shared`` shares
    the nonempty ones round robin between this process and forked children,
    one per further CPU.  Every process replays every bucket's draws, in
    order, on its own copy of ``rng`` and scores only its own buckets, so
    the estimates, the degraded flag and where ``rng`` is left are the same
    bytes as the serial loop's for every process count.

    So ``hypothesis.evaluate``/``evaluate_many`` must depend only on the
    example: memos and any other state the hypothesis builds while scoring a
    child's buckets stay in that child and are not carried back.  An
    exception raised in a child is re-raised here (as a ``RuntimeError``
    naming it when it cannot be pickled); every child is reaped before this
    returns or raises.
    """
    n = state.n
    k, conforming = capped_sample_count(n, gamma, xi, k_cap)
    bounds = state.bucket_bounds
    concept = state.concept
    evaluate_many = getattr(hypothesis, "evaluate_many", None)
    if evaluate_many is None:
        evaluate_many = lambda examples: map(hypothesis.evaluate, examples)
    live = [i for i in range(n + 1) if bounds[i + 1] > bounds[i]]

    def tally(share: list) -> dict:
        """Accepted count of each bucket in ``share``; draws every live bucket."""
        share, hits = set(share), {}
        for i in live:
            draws = rng.integers(bounds[i], bounds[i + 1], size=k)
            if i not in share:
                continue
            # the bucket's k draws, encrypted and evaluated in bounded batches
            acc = 0
            for start in range(0, k, ESTIMATE_BATCH):
                batch = draws[start : start + ESTIMATE_BATCH].tolist()
                acc += sum(evaluate_many(concept.encrypt_examples(batch)))
            hits[i] = acc
        return hits

    hits = _tally_shared(tally, live)
    p_hat = [0.0] * (n + 1)
    for i in range(n + 1):
        if i in hits:
            p_hat[i] = hits[i] / k
        elif i > 0:
            p_hat[i] = p_hat[i - 1]
    return p_hat, k, conforming, len(live) < n + 1


def accuse_from_estimates(estimates: list[float], gamma: float, n: int) -> "int | None":
    """Least sorted position i in [1, n] with p_hat_{i-1} - p_hat_i >= gamma/n."""
    threshold = gamma / n
    for i in range(1, n + 1):
        if estimates[i - 1] - estimates[i] >= threshold:
            return i
    return None


def trace_ex(
    state: ReidentState,
    hypothesis,
    gamma: float,
    xi: float,
    rng: np.random.Generator,
    k_cap: "int | None" = None,
) -> TraceVerdict:
    """Estimate bucket probabilities and accuse the first separating index."""
    estimates, _, _, degraded = estimate_bucket_probs(
        state, hypothesis, gamma, xi, rng, k_cap=k_cap
    )
    sorted_i = accuse_from_estimates(estimates, gamma, state.n)
    raw_i = None
    if sorted_i is not None:
        raw_i = state.sorted_to_raw[sorted_i - 1] + 1
    return TraceVerdict(
        accused=raw_i,
        accused_sorted=sorted_i,
        estimates=estimates,
        degraded=degraded,
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def completeness_experiment(
    scheme: OreScheme,
    n: int,
    learner,
    alpha: float,
    gamma: float,
    xi: float,
    trials: int,
    rng: np.random.Generator,
    k_cap: "int | None" = None,
) -> list[dict]:
    """Can a good hypothesis be traced to some example?

    Per trial: generate, learn on the full sample, measure error, trace.
    Returns one row per trial: whether the draw was well-spaced, the error,
    whether it is at most alpha (good), the accused index, and whether the
    hypothesis was good and untraced.
    """
    rows = []
    for _ in range(trials):
        state, sample = gen_ex(scheme, n, rng)
        hypothesis = learner(sample)
        # error under the run's own distribution, uniform valid encryptions
        err = hypothesis_error(
            hypothesis, state.concept, UniformValidDistribution(state.concept), rng
        )
        verdict = trace_ex(state, hypothesis, gamma, xi, rng, k_cap=k_cap)
        rows.append(
            {
                "well_spaced": state.well_spaced,
                "error": err,
                "good": err <= alpha,
                "accused": verdict.accused,
                "good_and_untraced": err <= alpha and verdict.accused is None,
            }
        )
    return rows


def soundness_experiment(
    scheme: OreScheme,
    n: int,
    learner,
    drop_index: int,
    gamma: float,
    xi: float,
    trials: int,
    rng: np.random.Generator,
    k_cap: "int | None" = None,
) -> list[dict]:
    """How often is the dropped example accused when the learner never saw it?

    Returns one row per trial: whether the draw was well-spaced and the
    accused index.
    """
    rows = []
    for _ in range(trials):
        state, sample = gen_ex(scheme, n, rng)
        hypothesis = learner(sample_without(state, sample, drop_index))
        verdict = trace_ex(state, hypothesis, gamma, xi, rng, k_cap=k_cap)
        rows.append(
            {
                "well_spaced": state.well_spaced,
                "accused": verdict.accused,
            }
        )
    return rows


def dp_bound(beta: float, xi: float, n: int, eps: float) -> float:
    """No efficient (eps, delta)-DP (alpha, beta)-PAC learner exists for
    delta below this value; nonpositive means no contradiction at these
    parameters."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not (0 <= beta <= 1 and 0 <= xi <= 1 and eps >= 0):
        raise ValueError("parameters out of range")
    return (1.0 - beta - xi) / n - math.exp(eps) * xi
