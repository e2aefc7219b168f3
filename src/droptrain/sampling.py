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
iteration replays from (seed, k) alone.  ``stream(seed, *path)`` is bit for
bit ``default_rng(SeedSequence(seed, spawn_key=path))``, but it does not
build the ``SeedSequence``: it hashes the spawn keys of 256 consecutive last
path elements at once, in numpy arrays, with SeedSequence's own documented
algorithm, keeps the last few such blocks, and seeds each ``PCG64`` from its
key's precomputed row.  Its generators therefore cannot ``spawn``.

The schemes that draw an index from a probability vector (``Rpt``,
``TauSubmodel``, ``PartitionedSubmodel``) build its CDF once, at
construction, and ``sample`` draws with ``Generator.choice``'s own arithmetic
on it (one uniform double, a right-sided search), so every draw equals
``rng.choice(len(p), p=p)`` without re-validating ``p`` on each call.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .geometry import check_matrix

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
    "ConfigError",
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


def _cdf(p: tuple[float, ...]) -> tuple[float, ...]:
    """The CDF ``Generator.choice`` builds from ``p`` on every call, built once."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def _draw(cdf: tuple[float, ...], rng: np.random.Generator) -> int:
    """0-based index drawn exactly as ``rng.choice(len(p), p=p)`` draws it."""
    return bisect.bisect_right(cdf, rng.random())


@dataclass(frozen=True)
class Rpt:
    """Randomized progressive training: cutoff s ~ p, active set {s, ..., b}."""

    p: tuple[float, ...]
    cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
    cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
    cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)

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


_EXPONENT_MARGIN = 1e-9  # relative rounding of an epoch-shift exponent's bracket


@dataclass(frozen=True)
class EpochShiftRpt:
    """RPT whose cutoff distribution drifts with training progress.

    ``at(progress)`` materializes the cutoff vector via ``epoch_shift_probs``;
    the optimizer recomputes it each iteration from progress = k / K.  The
    static scheme operations (sample, marginals, distribution) need a progress
    value, so call ``at`` first.

    alpha must be finite, and so must the largest exponent magnitude,
    |alpha| * (b - 1) at progress 0 and 1, with a margin for its rounding;
    beyond that the weights overflow there.
    """

    b: int
    alpha: float

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        scale = math.fabs(self.alpha) * (1.0 + _EXPONENT_MARGIN)
        if scale and self.b - 1 > sys.float_info.max / scale:  # an exact int-float comparison
            raise ValueError(
                f"|alpha| * (b - 1) must be finite, got alpha {self.alpha} with b = {self.b}"
            )

    def at(self, progress: float) -> "Rpt":
        return Rpt(tuple(epoch_shift_probs(self.b, self.alpha, progress)))


SamplingScheme = Union[Rpt, TauNice, TauSubmodel, PartitionedSubmodel, FullNetwork]


# numpy's SeedSequence: pool of 4 uint32 words, hashed with these constants
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_BLOCK_BITS = 8  # a block holds the keys of 2**8 consecutive last path elements


def _hash_consts(init: int, mult: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) pairs of ``n`` successive hashes run from the constant ``init``."""
    out, const = [], init
    for _ in range(n):
        nxt = const * mult & _MASK32
        out.append((const, nxt))
        const = nxt
    return tuple(out)


# the hash constants do not depend on the data: the mixing pairs cover
# entropy of up to 16 words, the output pairs one PCG64 seed (8 words)
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * 12)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value, xor: int, mult: int):
    """SeedSequence's ``hashmix`` on a uint32 word: a Python int or a uint64 array."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """SeedSequence's ``mix`` of two uint32 words, each a Python int or a uint64 array."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _words(n: int) -> list[int]:
    """The uint32 words of a non-negative int, least significant first ([0] for 0)."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _entropy_int(x) -> int:
    """``x`` as a non-negative int, refused as ``SeedSequence`` refuses it."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    return x


@functools.lru_cache(maxsize=16)
def _seed_block(seed: int, prefix: tuple[int, ...], high: int | None) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence(seed, spawn_key=prefix + (k,))``, one row per k.

    The rows are the 256 keys ``k = high * 256 + j``, j = 0..255; with
    ``high`` None, the one row of ``SeedSequence(seed)``.  Only word 0 of k
    varies within a block and never carries, so it is the only array: the
    words before it are mixed once, as Python ints.
    """
    entropy = _words(seed)
    if high is not None:
        entropy += [0] * (_POOL_SIZE - len(entropy))  # run entropy padded before a spawn key
        for p in prefix:
            entropy += _words(p)
        last = _words(high << _BLOCK_BITS)
        last[0] = np.arange(1 << _BLOCK_BITS, dtype=np.uint64) + last[0]
        entropy += last
    n_hashes = _POOL_SIZE**2 + _POOL_SIZE * max(0, len(entropy) - _POOL_SIZE)
    consts = _HASH_A if n_hashes <= len(_HASH_A) else _hash_consts(_INIT_A, _MULT_A, n_hashes)
    hashes = iter(consts)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else 0, *next(hashes)) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(hashes)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(hashes)))
    state = [_hashmix(pool[i % _POOL_SIZE], *c) for i, c in enumerate(_HASH_B)]
    cols = [np.asarray(state[2 * i] | state[2 * i + 1] << 32, dtype=np.uint64) for i in range(4)]
    block = np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, 4)
    block.flags.writeable = False
    return block


@functools.cache
def _fixed_seed_class() -> type:
    """An ``ISeedSequence`` that hands PCG64 one precomputed row of seed words.

    Made on first use: subclassing at import would load ``numpy.random``
    with every import of the package.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeedWords(ISeedSequence):
        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds only PCG64's seed: 4 uint64 words")
            return self.row

        def __reduce__(self):  # a pickled generator keeps its seed words
            return _fixed_seed_words, (self.row,)

    return FixedSeedWords


def _fixed_seed_words(row: np.ndarray):
    return _fixed_seed_class()(row)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Replayable generator for the spawn-key ``path`` under ``seed``.

    Distinct paths give statistically independent streams (SeedSequence spawn
    keys).  ``optimizer.run`` draws initialization from ``stream(seed, 0)``
    and iteration k -- its active set, then its gradient noise -- from
    ``stream(seed, k + 1)``, so any iteration replays bit-identically without
    replaying its predecessors.

    Each call returns a fresh ``Generator(PCG64)`` whose state, and so every
    draw, equals ``default_rng(SeedSequence(seed, spawn_key=path))``'s, and
    refuses a negative (ValueError) or non-integer (TypeError) seed or path
    element as that does.  The PCG64 seed words come from ``_seed_block``,
    which hashes 256 consecutive last path elements at once and keeps the
    last 16 blocks.  The generator's ``bit_generator.seed_seq`` is not a
    ``SeedSequence``, so ``Generator.spawn`` is not supported.
    """
    seed = _entropy_int(seed)
    path = tuple(map(_entropy_int, path))
    if path:
        row = _seed_block(seed, path[:-1], path[-1] >> _BLOCK_BITS)[path[-1] & 0xFF]
    else:
        row = _seed_block(seed, (), None)[0]
    return np.random.Generator(np.random.PCG64(_fixed_seed_words(row)))


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

class ConfigError(ValueError):
    """A fault in a config document; the message starts with the field path of the value."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")


def _entry(path: str | None, name: str) -> str:
    """The field path of a constructor's entry ``name``: ``path.name``, or ``name`` alone."""
    return name if path is None else f"{path}.{name}"


def _entry_fault(path: str | None, name: str, message: str) -> ValueError:
    """A constructor's fault of entry ``name``: ``name message``, or, under a document
    path, the ConfigError ``path.name: message``."""
    if path is None:
        return ValueError(f"{name} {message}")
    return ConfigError(f"{path}.{name}", message)


def _positive_finite(values, name: str, path: str | None) -> tuple[float, ...]:
    """A constructor's entries ``name[j]``, each checked to be a positive finite number."""
    values = tuple(_json_number(v, _entry(path, f"{name}[{j}]")) for j, v in enumerate(values))
    for j, v in enumerate(values):
        if not 0.0 < v < math.inf:
            raise _entry_fault(path, f"{name}[{j}]", f"must be positive and finite, got {v}")
    return values


def _json_object(value, path: str) -> dict:
    """``value`` checked as a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    return value


def _json_field(spec, key: str, path: str):
    """``spec[key]`` of the JSON object ``spec``; a missing field is named ``path.key``."""
    if key not in _json_object(spec, path):
        raise ConfigError(f"{path}.{key}", "missing required field")
    return spec[key]


def _json_list(value, path: str, n: int | None = None) -> list:
    """``value`` checked as a JSON list (or a tuple or an array), of ``n`` entries when given."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ConfigError(path, f"expected a list, got {value!r}")
    if n is not None and len(value) != n:
        raise ConfigError(path, f"expected {n} entries, got {len(value)}")
    return value


def _json_number(value, path: str) -> float:
    """``value`` checked as a JSON number, never a bool or a string, and returned as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(path, f"must be finite, got {value}") from None


def _json_int(value, path: str, minimum: int | None = None) -> int:
    """``value`` checked as a JSON integer, never a bool, and not below ``minimum`` when given."""
    what = "an integer" if minimum is None else f"an integer >= {minimum}"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or \
            (minimum is not None and value < minimum):
        raise ConfigError(path, f"expected {what}, got {value!r}")
    return int(value)


def _json_finite(value, path: str) -> float:
    """``value`` checked as a finite JSON number."""
    x = _json_number(value, path)
    if not math.isfinite(x):
        raise ConfigError(path, f"must be finite, got {x}")
    return x


def _json_matrix(value, path: str, shape) -> np.ndarray:
    """``value`` checked as a finite matrix of ``shape``."""
    try:
        x = check_matrix(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if x.shape != tuple(shape):
        raise ConfigError(path, f"expected shape {tuple(shape)}, got {x.shape}")
    return x


def scheme_from_dict(spec: dict) -> SamplingScheme:
    """The scheme of a config document, read without coercion.

    ``b``, ``tau`` and block members must be integers and ``p`` and
    ``alpha`` numbers (a bool or a string is neither); a value of another
    type, or a missing field, raises ConfigError naming ``scheme.<field>``.
    The scheme's constructor checks the values' ranges, with its own messages.
    """
    kind = _json_object(spec, "scheme").get("kind")

    def field(key: str):
        return _json_field(spec, key, "scheme")

    def integer(key: str) -> int:
        return _json_int(field(key), f"scheme.{key}")

    def probs() -> tuple[float, ...]:
        p = _json_list(field("p"), "scheme.p")
        return tuple(_json_number(v, f"scheme.p[{j}]") for j, v in enumerate(p))

    if kind == "rpt":
        return Rpt(probs())
    if kind == "tau_nice":
        return TauNice(integer("b"), integer("tau"))
    if kind == "tau_submodel":
        return TauSubmodel(integer("b"), integer("tau"), probs())
    if kind == "partitioned_submodel":
        blocks = tuple(
            frozenset(
                _json_int(i, f"scheme.blocks[{k}][{j}]")
                for j, i in enumerate(_json_list(blk, f"scheme.blocks[{k}]"))
            )
            for k, blk in enumerate(_json_list(field("blocks"), "scheme.blocks"))
        )
        return PartitionedSubmodel(blocks, probs())
    if kind == "full_network":
        return FullNetwork(integer("b"))
    if kind == "epoch_shift":
        return EpochShiftRpt(integer("b"), _json_number(field("alpha"), "scheme.alpha"))
    raise ConfigError("scheme.kind", f"unknown kind {kind!r}")
