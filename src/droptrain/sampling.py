"""Distributions over layer subsets: construction, sampling, marginals, enumeration.

Layers are numbered 1..b throughout (matching the cutoff formulas); an active
set is a frozenset of 1-based layer indices.  Marginal vectors are numpy arrays
of length b with ``F[i-1] = P(min S <= i)`` and ``Q[i-1] = P(i in S)``; these
two marginals are all the cost model needs, since the expected per-iteration
cost is linear in them.

Five families ship:

* ``Rpt(p)`` -- sample a cutoff s with probability p[s-1], activate {s..b};
* ``TauNice(b, tau)`` -- uniform over all size-tau subsets;
* ``TauSubmodel(b, tau, p)`` -- a window {s..s+tau-1} with start s ~ p;
* ``PartitionedSubmodel(blocks, p)`` -- one block of a fixed partition;
* ``FullNetwork(b)`` -- all layers, always.

Sampling draws from a caller-supplied ``numpy.random.Generator``; the
``stream`` helper derives independent, replayable generators from a base seed
via SeedSequence spawn keys.  ``optimizer.run`` follows one rule:
``stream(seed, 0)`` feeds initialization and ``stream(seed, k + 1)`` feeds
iteration k, which draws its active set before its gradient noise, so any
iteration replays from (seed, k) alone.  The schemes that draw an index
from a probability vector (``Rpt``, ``TauSubmodel``, ``PartitionedSubmodel``)
build its CDF once, at construction, and ``sample`` draws with
``Generator.choice``'s own arithmetic on it (one uniform double, a
right-sided search), so every draw equals ``rng.choice(len(p), p=p)``
without re-validating ``p`` on each call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Rpt",
    "TauNice",
    "TauSubmodel",
    "PartitionedSubmodel",
    "FullNetwork",
    "EpochShiftRpt",
    "SamplingScheme",
    "stream",
    "sample",
    "marginals",
    "distribution",
    "epoch_shift_probs",
    "scheme_from_dict",
]

PROB_SUM_TOL = 1e-12


def _check_prob_vector(p) -> tuple[float, ...]:
    p = tuple(float(x) for x in p)
    if len(p) == 0:
        raise ValueError("p must be non-empty")
    for j, x in enumerate(p):
        if not math.isfinite(x):
            raise ValueError(f"p[{j}] must be finite, got {x}")
    if any(x < 0.0 for x in p):
        raise ValueError("p must be non-negative")
    if abs(sum(p) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"p must sum to 1 within {PROB_SUM_TOL}, got {sum(p)}")
    return p


def _cdf(p: tuple[float, ...]) -> np.ndarray:
    """The CDF ``Generator.choice`` builds from ``p`` on every call, built once."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """0-based index drawn exactly as ``rng.choice(len(p), p=p)`` draws it."""
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass(frozen=True)
class Rpt:
    """Randomized progressive training: cutoff s ~ p, active set {s, ..., b}."""

    p: tuple[float, ...]
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", _check_prob_vector(self.p))
        object.__setattr__(self, "cdf", _cdf(self.p))

    @property
    def b(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class TauNice:
    """Uniform choice among all subsets of [b] of size tau."""

    b: int
    tau: int

    def __post_init__(self):
        if not 1 <= self.tau <= self.b:
            raise ValueError(f"need 1 <= tau <= b, got tau={self.tau}, b={self.b}")


@dataclass(frozen=True)
class TauSubmodel:
    """A window of tau consecutive layers starting at s ~ p over 1..b-tau+1."""

    b: int
    tau: int
    p: tuple[float, ...]
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.tau <= self.b:
            raise ValueError(f"need 1 <= tau <= b, got tau={self.tau}, b={self.b}")
        object.__setattr__(self, "p", _check_prob_vector(self.p))
        object.__setattr__(self, "cdf", _cdf(self.p))
        if len(self.p) != self.b - self.tau + 1:
            raise ValueError(
                f"p must have length b - tau + 1 = {self.b - self.tau + 1}, got {len(self.p)}"
            )


@dataclass(frozen=True)
class PartitionedSubmodel:
    """The active set is block ``blocks[k-1]`` with probability p[k-1]."""

    blocks: tuple[frozenset[int], ...]
    p: tuple[float, ...]
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(frozenset(int(i) for i in blk) for blk in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "p", _check_prob_vector(self.p))
        object.__setattr__(self, "cdf", _cdf(self.p))
        if len(self.p) != len(blocks):
            raise ValueError("p must have one entry per block")
        if any(len(blk) == 0 for blk in blocks):
            raise ValueError("blocks must be non-empty")
        union = set().union(*blocks)
        total = sum(len(blk) for blk in blocks)
        b = len(union)
        if total != b or union != set(range(1, b + 1)):
            raise ValueError("blocks must be disjoint and cover {1, ..., b}")

    @property
    def b(self) -> int:
        return sum(len(blk) for blk in self.blocks)

    def block_of(self, i: int) -> int:
        """1-based index of the block containing layer i."""
        for k, blk in enumerate(self.blocks, start=1):
            if i in blk:
                return k
        raise KeyError(i)


@dataclass(frozen=True)
class FullNetwork:
    """Every layer active at every iteration."""

    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("b must be >= 1")


@dataclass(frozen=True)
class EpochShiftRpt:
    """RPT whose cutoff distribution drifts with training progress.

    ``at(progress)`` materializes the cutoff vector via ``epoch_shift_probs``;
    the optimizer recomputes it each iteration from progress = k / K.  The
    static scheme operations (sample, marginals, distribution) need a progress
    value, so call ``at`` first.
    """

    b: int
    alpha: float

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

    def at(self, progress: float) -> "Rpt":
        return Rpt(tuple(epoch_shift_probs(self.b, self.alpha, progress)))


SamplingScheme = Union[Rpt, TauNice, TauSubmodel, PartitionedSubmodel, FullNetwork]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Replayable generator for the spawn-key ``path`` under ``seed``.

    Distinct paths give statistically independent streams (SeedSequence spawn
    keys).  ``optimizer.run`` draws initialization from ``stream(seed, 0)``
    and iteration k -- its active set, then its gradient noise -- from
    ``stream(seed, k + 1)``, so any iteration replays bit-identically without
    replaying its predecessors.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def sample(scheme: SamplingScheme, rng: np.random.Generator) -> frozenset[int]:
    """Draw one active set (1-based layer indices)."""
    if isinstance(scheme, FullNetwork):
        return frozenset(range(1, scheme.b + 1))
    if isinstance(scheme, Rpt):
        s = _draw(scheme.cdf, rng) + 1
        return frozenset(range(s, scheme.b + 1))
    if isinstance(scheme, TauNice):
        # Partial Fisher-Yates: exactly uniform over size-tau subsets, O(b).
        ids = list(range(1, scheme.b + 1))
        for j in range(scheme.tau):
            k = int(rng.integers(j, scheme.b))
            ids[j], ids[k] = ids[k], ids[j]
        return frozenset(ids[: scheme.tau])
    if isinstance(scheme, TauSubmodel):
        s = _draw(scheme.cdf, rng) + 1
        return frozenset(range(s, s + scheme.tau))
    if isinstance(scheme, PartitionedSubmodel):
        k = _draw(scheme.cdf, rng)
        return scheme.blocks[k]
    raise TypeError(f"unknown scheme {scheme!r}")


def marginals(scheme: SamplingScheme) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form marginals (F, Q) with F[i-1] = P(min S <= i), Q[i-1] = P(i in S).

    Binomial coefficients use the convention C(n, k) = 0 for k > n, so the
    tau-nice formula automatically yields F_i = 1 once b - i < tau.
    """
    b = scheme.b
    if isinstance(scheme, FullNetwork):
        ones = np.ones(b)
        return ones, ones.copy()
    if isinstance(scheme, Rpt):
        f = np.cumsum(scheme.p)
        return f, f.copy()
    if isinstance(scheme, TauNice):
        denom = math.comb(b, scheme.tau)
        f = np.array([1.0 - math.comb(b - i, scheme.tau) / denom for i in range(1, b + 1)])
        q = np.full(b, scheme.tau / b)
        return f, q
    if isinstance(scheme, TauSubmodel):
        tau, p = scheme.tau, scheme.p
        nstarts = b - tau + 1
        f = np.array([sum(p[: min(i, nstarts)]) for i in range(1, b + 1)])
        q = np.array(
            [sum(p[max(1, i - tau + 1) - 1 : min(i, nstarts)]) for i in range(1, b + 1)]
        )
        return f, q
    if isinstance(scheme, PartitionedSubmodel):
        mins = [min(blk) for blk in scheme.blocks]
        f = np.array(
            [sum(pk for pk, mn in zip(scheme.p, mins) if mn <= i) for i in range(1, b + 1)]
        )
        q = np.array([scheme.p[scheme.block_of(i) - 1] for i in range(1, b + 1)])
        return f, q
    raise TypeError(f"unknown scheme {scheme!r}")


def distribution(scheme: SamplingScheme) -> dict[frozenset[int], float]:
    """Exact distribution as a subset -> probability map (small b only).

    For tau-nice this enumerates all C(b, tau) subsets; intended for the
    desk-scale verification paths, not for production sampling.
    """
    b = scheme.b
    if isinstance(scheme, FullNetwork):
        return {frozenset(range(1, b + 1)): 1.0}
    if isinstance(scheme, Rpt):
        return {
            frozenset(range(s, b + 1)): ps
            for s, ps in enumerate(scheme.p, start=1)
            if ps > 0.0
        }
    if isinstance(scheme, TauNice):
        prob = 1.0 / math.comb(b, scheme.tau)
        return {
            frozenset(c): prob
            for c in itertools.combinations(range(1, b + 1), scheme.tau)
        }
    if isinstance(scheme, TauSubmodel):
        return {
            frozenset(range(s, s + scheme.tau)): ps
            for s, ps in enumerate(scheme.p, start=1)
            if ps > 0.0
        }
    if isinstance(scheme, PartitionedSubmodel):
        out: dict[frozenset[int], float] = {}
        for blk, pk in zip(scheme.blocks, scheme.p):
            if pk > 0.0:
                out[blk] = out.get(blk, 0.0) + pk
        return out
    raise TypeError(f"unknown scheme {scheme!r}")


def epoch_shift_probs(b: int, alpha: float, progress: float) -> np.ndarray:
    """Cutoff distribution that drifts from shallow to deep layers.

    Weights ``w_i = exp(alpha * [(1 - progress) * (b - 1 - i) + progress * i])``
    for 0-based i in {0, ..., b-1}, normalized; the result is read as an RPT
    cutoff vector over 1-based cutoffs.  At progress 0 (and alpha > 0) the mass
    sits on shallow cutoffs (whole-network updates), at progress 1 on deep
    ones.  Recomputed per iteration from progress = k / K.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if not 0.0 <= progress <= 1.0:
        raise ValueError("progress must lie in [0, 1]")
    i = np.arange(b)
    expo = alpha * ((1.0 - progress) * (b - 1 - i) + progress * i)
    w = np.exp(expo - expo.max())  # max-shift only changes the normalizer
    return w / w.sum()


# ---------------------------------------------------------------------------
# Parsing (structured config documents)
# ---------------------------------------------------------------------------

def scheme_from_dict(spec: dict) -> SamplingScheme:
    kind = spec.get("kind")
    if kind == "rpt":
        return Rpt(tuple(spec["p"]))
    if kind == "tau_nice":
        return TauNice(int(spec["b"]), int(spec["tau"]))
    if kind == "tau_submodel":
        return TauSubmodel(int(spec["b"]), int(spec["tau"]), tuple(spec["p"]))
    if kind == "partitioned_submodel":
        return PartitionedSubmodel(
            tuple(frozenset(blk) for blk in spec["blocks"]), tuple(spec["p"])
        )
    if kind == "full_network":
        return FullNetwork(int(spec["b"]))
    if kind == "epoch_shift":
        return EpochShiftRpt(int(spec["b"]), float(spec["alpha"]))
    raise ValueError(f"scheme.kind: unknown kind {kind!r}")
