"""Compute-cost model and optimal sampling-probability solvers.

One iteration that activates layers S costs

    cost(S) = c_ov + sum_{i = min S}^{b} c_i + sum_{i in S} c_i_sharp:

backpropagation runs from the last layer down to the smallest active index
(frozen-prefix activations are cached), and each active layer pays its sharp
operator / parameter-update cost.  Expectations of this cost are linear in the
two marginals F_i = P(min S <= i) and Q_i = P(i in S), so every sampling family
with closed-form marginals has a closed-form expected cost.

Dividing the expected per-iteration cost by the convergence-rate weight of the
slowest layer gives the total cost to a target accuracy; minimizing it over
cutoff probabilities is a linear-fractional program.  This module implements

* the per-layer rate weights and iteration-count bounds the guarantees are
  stated with (``theory_weights``, ``horizon_eta_caps``, ``l0l1_iterations``),
* the exact recursive construction of the optimal cutoff probabilities in the
  layer-wise smooth regime (cost-parameter independent),
* the closed-form optimal block probabilities for partitioned sampling,
* a deterministic grid + refinement solver for the gradient-dependent
  (L0, L1) regimes, where the reduced program has a nonconvex feasible set,
* brute-force simplex-grid oracles used by the verification suites,
* a tau-nice cost scan separating the smoothness factor A(tau) from the
  provably decreasing cost factor B(tau).

Layer and cutoff indices are 1-based; tables key layer-wise constants either
by RPT cutoff s (the active set {s..b}) or by partition block id.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .sampling import (
    ConfigError,
    FullNetwork,
    PartitionedSubmodel,
    Rpt,
    SamplingScheme,
    _entry,
    _entry_fault,
    _json_field,
    _json_finite,
    _json_int,
    _json_list,
    _json_number,
    marginals,
)

__all__ = [
    "CostParams",
    "TableMode",
    "SmoothnessTable",
    "CostBreakdown",
    "iteration_cost",
    "expected_iteration_cost",
    "cutoff_probs",
    "total_cost",
    "TheoryWeights",
    "theory_weights",
    "smooth_rate_rhs",
    "horizon_eta_caps",
    "l0l1_iterations",
    "partition_smooth_weights",
    "smooth_recursion_q",
    "optimal_rpt_probs_smooth",
    "full_network_optimal_smooth",
    "PartitionProbs",
    "optimal_partition_probs",
    "L0L1Probs",
    "optimal_rpt_probs_l0l1",
    "rpt_cost_objective_smooth",
    "rpt_cost_objective_l0l1",
    "simplex_grid",
    "brute_force_optimal_probs",
    "TauScanRow",
    "TauScan",
    "tau_nice_cost_scan",
]

L0L1_MAX_LAYERS = 8  # grid solver limit; use partitioned mode beyond this
L0L1_GRID_DENOMINATOR = {1: 1, 2: 200, 3: 100, 4: 40, 5: 24, 6: 14, 7: 10, 8: 8}  # by b
L0L1_REFINE_ROUNDS = 60
MONOTONICITY_TOL = 1e-12  # a subset's constant may exceed its superset's by this much


@dataclass(frozen=True)
class CostParams:
    """Per-iteration cost constants: overhead, per-layer backward/forward, per-layer sharp.

    Each entry must be a number (a bool or a string is not; numpy scalars
    are), stored as a float; a non-number, a non-finite value or a value
    below its bound (c_ov >= 0, c[j] > 0, c_sharp[j] >= 0) raises ValueError
    naming the entry, as ``path.<entry>:`` when ``path`` is given.
    """

    c_ov: float
    c: tuple[float, ...]
    c_sharp: tuple[float, ...]
    path: InitVar[str | None] = None  # the document path that names a faulty entry

    def __post_init__(self, path):
        object.__setattr__(self, "c_ov", _json_number(self.c_ov, _entry(path, "c_ov")))
        entries = [("c_ov", self.c_ov, ">=")]
        for name, bound in (("c", ">"), ("c_sharp", ">=")):
            values = tuple(_json_number(x, _entry(path, f"{name}[{j}]"))
                           for j, x in enumerate(getattr(self, name)))
            object.__setattr__(self, name, values)
            entries += [(f"{name}[{j}]", x, bound) for j, x in enumerate(values)]
        for name, x, _ in entries:
            if not math.isfinite(x):
                raise _entry_fault(path, name, f"must be finite, got {x}")
        for name, x, bound in entries:
            if x < 0.0 or (bound == ">" and x == 0.0):
                raise _entry_fault(path, name, f"must be {bound} 0, got {x}")
        if len(self.c) != len(self.c_sharp):
            raise ValueError("c and c_sharp must have equal length")

    @property
    def b(self) -> int:
        return len(self.c)

    def to_dict(self) -> dict:
        return {"c_ov": self.c_ov, "c": list(self.c), "c_sharp": list(self.c_sharp)}

    @staticmethod
    def from_dict(spec: dict, b: int | None = None) -> "CostParams":
        """The cost parameters of a ``to_dict`` document, read once and without coercion.

        ``spec`` must be an object with the fields ``c_ov`` and the lists
        ``c`` and ``c_sharp``, of ``b`` entries each when ``b`` is given, else
        of equal length.  A missing field, a value of another type, a
        non-finite value, a value below its bound or a list of the wrong
        length raises ConfigError naming ``cost.<field>``.
        """
        c_ov = _json_field(spec, "c_ov", "cost")
        c = _json_list(_json_field(spec, "c", "cost"), "cost.c", b)
        c_sharp = _json_list(_json_field(spec, "c_sharp", "cost"), "cost.c_sharp", len(c))
        return CostParams(c_ov, c, c_sharp, "cost")


class TableMode(str, enum.Enum):
    RPT_CUTOFF = "rpt_cutoff"  # keys are cutoffs s <= i, set {s..b}
    PARTITION = "partition"    # keys are 1-based block ids containing i


@dataclass
class SmoothnessTable:
    """Layer-wise smoothness constants indexed by (layer, supported-set key).

    ``l0[(i, s)]`` is the constant-curvature term for layer i over the set
    keyed by s; ``l1`` optionally holds the gradient-magnitude coefficients of
    the generalized-smooth model.  ``approximate=True`` marks sampled-secant
    estimates (as opposed to exact quadratic constants).
    """

    mode: TableMode
    b: int
    l0: dict[tuple[int, int], float]
    l1: dict[tuple[int, int], float] | None = None
    approximate: bool = False

    @staticmethod
    def from_rpt_rows(
        rows_l0: Sequence[Sequence[float]],
        rows_l1: Sequence[Sequence[float]] | None = None,
    ) -> "SmoothnessTable":
        """Build an RPT-cutoff table from rows ``rows[i-1][s-1] = L_{i, {s..b}}``, s <= i."""
        def keyed(rows, name: str) -> dict[tuple[int, int], float]:
            out = {}
            for i, row in enumerate(rows, start=1):
                if len(row) != i:
                    raise ValueError(f"{name} {i} must list constants for cutoffs 1..{i}")
                for s, val in enumerate(row, start=1):
                    out[(i, s)] = float(val)
            return out

        l0 = keyed(rows_l0, "row")
        l1 = None if rows_l1 is None else keyed(rows_l1, "L1 row")
        return SmoothnessTable(TableMode.RPT_CUTOFF, len(rows_l0), l0, l1)

    def require(self, i: int, key: int, which: str = "l0") -> float:
        table = self.l0 if which == "l0" else self.l1
        if table is None or (i, key) not in table:
            raise KeyError(
                f"missing smoothness constant {which.upper()} for layer {i}, set key {key}"
            )
        return table[(i, key)]

    def key_for(self, active: frozenset[int]) -> int:
        """Set key for an active set: its cutoff (suffix sets) or its block id."""
        if self.mode == TableMode.RPT_CUTOFF:
            s = min(active)
            if active != frozenset(range(s, self.b + 1)):
                raise ValueError(
                    f"active set {sorted(active)} is not a suffix {{s..{self.b}}}; "
                    "an RPT-cutoff table cannot key it"
                )
            return s
        for k in range(1, self.b + 1):
            members = {i for (i, kk) in self.l0 if kk == k}
            if members == set(active):
                return k
        raise ValueError(f"active set {sorted(active)} matches no block of the table")

    def monotonicity_violations(self) -> list[str]:
        """Nested-set monotonicity: suffix {s2..b} of {s1..b} cannot have a larger constant."""
        out = []
        if self.mode != TableMode.RPT_CUTOFF:
            return out
        for which, table in (("L0", self.l0), ("L1", self.l1 or {})):
            for i in range(1, self.b + 1):
                for s in range(2, i + 1):
                    if (i, s) in table and (i, s - 1) in table:
                        if table[(i, s)] > table[(i, s - 1)] + MONOTONICITY_TOL:
                            out.append(
                                f"{which}[{i},{{{s}..b}}] > {which}[{i},{{{s - 1}..b}}]"
                            )
        return out

    def full_network_l0(self) -> np.ndarray:
        """L0 constants for the full network set (cutoff key 1)."""
        return np.array([self.require(i, 1) for i in range(1, self.b + 1)])

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode.value,
            "b": self.b,
            "l0": [[i, k, v] for (i, k), v in sorted(self.l0.items())],
            "approximate": self.approximate,
        }
        if self.l1 is not None:
            out["l1"] = [[i, k, v] for (i, k), v in sorted(self.l1.items())]
        return out

    @staticmethod
    def from_dict(spec: dict) -> "SmoothnessTable":
        """The table of a ``to_dict`` document, read without coercion.

        ``spec`` must be an object, ``mode`` a ``TableMode`` value, ``b`` and
        each entry's layer and set key integers, its constant a number (a
        bool or a string is neither) and ``approximate`` a bool; each entry
        is a [layer, set key, constant] triple with a finite constant.  A
        value of another type, a non-finite constant, a missing field, a
        ``b`` below 1, a layer or set key outside 1..b, or a second entry for
        one (layer, set key), raises ConfigError naming ``table.<field>``.
        """
        def constants(which: str) -> dict[tuple[int, int], float]:
            out = {}
            entries = _json_list(_json_field(spec, which, "table"), f"table.{which}")
            for j, entry in enumerate(entries):
                at = f"table.{which}[{j}]"
                if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                    raise ConfigError(
                        at, f"expected a [layer, set key, constant] triple, got {entry!r}"
                    )
                i, k, v = entry
                key = (_json_int(i, f"{at}[0]"), _json_int(k, f"{at}[1]"))
                for n, x in enumerate(key):
                    if not 1 <= x <= b:
                        raise ConfigError(f"{at}[{n}]", f"must be in 1..{b}, got {x}")
                if key in out:
                    raise ConfigError(at, f"a second entry for layer {key[0]}, set key {key[1]}")
                out[key] = _json_finite(v, f"{at}[2]")
            return out

        modes = [m.value for m in TableMode]
        mode = _json_field(spec, "mode", "table")
        if mode not in modes:
            raise ConfigError("table.mode", f"expected one of {modes}, got {mode!r}")
        approximate = spec.get("approximate", False)
        if not isinstance(approximate, bool):
            raise ConfigError("table.approximate", f"expected a bool, got {approximate!r}")
        b = _json_int(_json_field(spec, "b", "table"), "table.b")
        if b < 1:
            raise ConfigError("table.b", f"must be >= 1, got {b}")
        return SmoothnessTable(
            TableMode(mode),
            b,
            constants("l0"),
            None if spec.get("l1") is None else constants("l1"),
            approximate,
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Total expected compute cost K * E[cost(S)] with its per-term decomposition."""

    regime: str
    expected_iteration_cost: float
    iterations: float
    total: float
    terms: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Per-iteration and expected cost
# ---------------------------------------------------------------------------

def iteration_cost(active: frozenset[int], cp: CostParams) -> float:
    """cost(S) = c_ov + sum_{i >= min S} c_i + sum_{i in S} c_sharp_i."""
    if not active:
        raise ValueError("active set must be non-empty")
    if min(active) < 1 or max(active) > cp.b:
        raise ValueError(f"active set {sorted(active)} out of range for b={cp.b}")
    s = min(active)
    return cp.c_ov + sum(cp.c[s - 1 :]) + sum(cp.c_sharp[i - 1] for i in active)


def expected_iteration_cost(scheme: SamplingScheme, cp: CostParams) -> float:
    """Exact expectation via marginals: c_ov + <c, F> + <c_sharp, Q>."""
    if scheme.b != cp.b:
        raise ValueError("scheme and cost params disagree on layer count")
    f, q = marginals(scheme)
    return cp.c_ov + float(np.dot(cp.c, f)) + float(np.dot(cp.c_sharp, q))


# ---------------------------------------------------------------------------
# Convergence-rate weights and iteration-count bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryWeights:
    """Per-layer rate weights and their mean."""

    w: np.ndarray
    mean: float


def _rpt_matrix(table: SmoothnessTable, which: str = "l0") -> np.ndarray:
    """Dense (b, b) array M[i-1, s-1] = L_{i,{s..b}} (L0 or L1) for s <= i; 0 elsewhere.

    Raises ValueError naming the mode of a table not keyed by cutoff.
    """
    if table.mode != TableMode.RPT_CUTOFF:
        raise ValueError(
            f"cutoff-keyed constants need an rpt_cutoff-mode table, got {table.mode.value}"
        )
    b = table.b
    out = np.zeros((b, b))
    for i in range(1, b + 1):
        for s in range(1, i + 1):
            out[i - 1, s - 1] = table.require(i, s, which)
    return out


def _l0l1_sums(p, table: SmoothnessTable) -> tuple[np.ndarray, ...]:
    """(cum, a0, a1): sum_{s<=i} p_s, sum_{s<=i} p_s L0_{i,{s..b}} and the same with L1.

    ``p`` is one cutoff vector (b,) or an (N, b) grid of them; the sums run
    along its last axis.
    """
    p = np.asarray(p, dtype=float)
    return np.cumsum(p, axis=-1), p @ _rpt_matrix(table, "l0").T, p @ _rpt_matrix(table, "l1").T


def _all_updated(w: np.ndarray) -> np.ndarray:
    """``w``, unless a layer has weight 0: it is never updated and no rate bound holds."""
    if np.any(w <= 0.0):
        i = int(np.argmin(w)) + 1
        raise ValueError(f"layer {i} never updated (weight 0); rate bound undefined")
    return w


def theory_weights(
    p: Sequence[float],
    table: SmoothnessTable,
    regime: str,
    eta: Sequence[float] | None = None,
) -> TheoryWeights:
    """Per-layer rate weights for an RPT cutoff distribution over the table's layers.

    smooth:     w_i = sum_{s<=i} p_s / (2 L0_{i,{s..b}})
    l0l1:       w_i = (sum_{s<=i} p_s)^2 / sum_{s<=i} p_s L1_{i,{s..b}}
    stochastic: w_i = (sum_{s<=i} p_s) * eta_i

    Raises if p does not have one entry per layer, or if any weight is zero
    (that layer is never updated and no rate holds).
    """
    p = np.asarray(p, dtype=float)
    b = table.b
    if p.shape != (b,):
        raise ValueError(f"p has {p.size} entries, the table has {b} layers")
    if regime == "smooth":
        # summed over s = 1..i in order: the run CSV's grad_sq_weighted reads these
        w = np.zeros(b)
        for i in range(1, b + 1):
            for s in range(1, i + 1):
                if p[s - 1] > 0.0:
                    l = table.require(i, s)
                    if l <= 0.0:
                        raise ValueError(f"L0 for layer {i}, cutoff {s} must be > 0")
                    w[i - 1] += p[s - 1] / (2.0 * l)
    elif regime == "l0l1":
        cum, _, a1 = _l0l1_sums(p, table)
        w = cum**2 / np.where(a1 > 0.0, a1, np.inf)
    elif regime == "stochastic":
        w = np.cumsum(p) * (1.0 if eta is None else np.asarray(eta, dtype=float))
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return TheoryWeights(_all_updated(w), float(w.mean()))


def smooth_rate_rhs(delta0: float, iterations: int, weights: TheoryWeights) -> float:
    """Right-hand side of the smooth-regime rate: delta0 / (K * mean(w))."""
    return delta0 / (iterations * weights.mean)


def horizon_eta_caps(
    p: Sequence[float],
    table: SmoothnessTable,
    horizon: int,
    rho_ratio: Sequence[float] | float = 1.0,
) -> np.ndarray:
    """Per-layer caps on eta_i^2 under which the horizon-schedule guarantee holds.

    The stochastic bound constrains eta_i^2 by the smaller of a horizon term
    and a sampling term (both built from the L1 constants and the cutoff
    distribution), capped at 1.  ``rho_ratio`` is the per-layer ratio of the
    norm-equivalence constants (1 for Euclidean layers).  Diagnostic only: the
    default eta = 1 mirrors the shared constant learning rate used in training
    practice, and these caps report how conservative that is.
    """
    p = np.asarray(p, dtype=float)
    b = table.b
    rho = np.broadcast_to(np.asarray(rho_ratio, dtype=float), (b,))
    beta = 1.0 / math.sqrt(horizon + 1)  # the horizon schedule's momentum parameter
    cum, _, a1 = _l0l1_sums(p, table)  # first: it refuses a table not keyed by cutoff
    # E[max_l L1_{l, S}] over the cutoff draw
    e_max_l1 = sum(
        p[s - 1] * max(table.require(i, s, "l1") for i in range(s, b + 1))
        for s in range(1, b + 1)
        if p[s - 1] > 0
    )
    caps = np.ones(b)
    for i in range(b):
        if a1[i] <= 0 or e_max_l1 <= 0:
            continue
        horizon_term = math.sqrt(horizon + 1) / (4.0 * a1[i] * e_max_l1)
        sampling_term = (
            p[0] / (rho[i] * 16.0 * (1.0 - beta)) / (cum[i] * a1[i] * e_max_l1)
            if p[0] > 0 and beta < 1.0
            else math.inf
        )
        caps[i] = min(horizon_term, sampling_term, 1.0)
    return caps


def l0l1_iterations(
    p: Sequence[float], table: SmoothnessTable, delta0: float, eps: float
) -> int:
    """Iterations sufficient for the weighted dual-gradient-norm criterion <= eps.

    Two-term bound: a 1/eps^2 term with the mixed L0/L1 sums plus a 1/eps
    term, both normalized by the mean weight.
    """
    tw = theory_weights(p, table, "l0l1")
    cum, a0, a1 = _l0l1_sums(p, table)
    total = float(np.sum(cum**2 * a0 / a1**2))
    return math.ceil(
        2.0 * delta0 * total / (eps**2 * tw.mean**2) + 2.0 * delta0 / (eps * tw.mean)
    )


def partition_smooth_weights(
    scheme: PartitionedSubmodel, table: SmoothnessTable
) -> np.ndarray:
    """w_i = p_{k(i)} / (2 L0_{i, B_{k(i)}})."""
    w = np.zeros(scheme.b)
    for i in range(1, scheme.b + 1):
        k = scheme.block_of(i)
        l = table.require(i, k)
        if l <= 0.0:
            raise ValueError(f"L0 for layer {i}, block {k} must be > 0")
        w[i - 1] = scheme.p[k - 1] / (2.0 * l)
    return w


def cutoff_probs(scheme: SamplingScheme) -> np.ndarray:
    """P(min S = s) of an RPT or full-network scheme."""
    if isinstance(scheme, Rpt):
        return np.asarray(scheme.p)
    if isinstance(scheme, FullNetwork):
        p = np.zeros(scheme.b)
        p[0] = 1.0
        return p
    raise ValueError(f"{type(scheme).__name__} has no RPT cutoff distribution")


def total_cost(
    scheme: SamplingScheme,
    cp: CostParams,
    table: SmoothnessTable,
    eps: float,
    regime: str,
    delta0: float = 1.0,
    apply_ceil: bool = True,
) -> CostBreakdown:
    """Total expected cost K(eps) * E[cost(S)] for a target accuracy eps.

    ``regime`` selects the iteration-count formula: ``smooth`` uses
    K = delta0 / (eps * min_i w_i) with the smooth weights; ``l0l1_eps`` and
    ``l0l1_eps2`` keep respectively the 1/eps and 1/eps^2 term of the
    generalized-smooth iteration bound (the analysis splits by which term
    dominates; regime selection is the caller's).  ``apply_ceil=False`` skips
    the ceiling for proportionality checks.
    """
    if not (0.0 < eps < math.inf and 0.0 < delta0 < math.inf):
        raise ValueError("eps and delta0 must be positive")
    if scheme.b != table.b:
        raise ValueError(f"the scheme has {scheme.b} layers, the table has {table.b}")
    exp_cost = expected_iteration_cost(scheme, cp)

    if isinstance(scheme, PartitionedSubmodel):
        if table.mode != TableMode.PARTITION:
            raise ValueError("partitioned scheme needs a partition-mode table")
        if regime == "smooth":
            w = partition_smooth_weights(scheme, table)
        else:
            q = np.array([scheme.p[scheme.block_of(i) - 1] for i in range(1, scheme.b + 1)])
            a1 = np.array(
                [table.require(i, scheme.block_of(i), "l1") for i in range(1, scheme.b + 1)]
            )
            w = np.where(a1 > 0, q / a1, 0.0)
            a0 = np.array([table.require(i, scheme.block_of(i)) for i in range(1, scheme.b + 1)])
            ratio_terms = np.where(a1 > 0, q * a0 / a1**2, np.inf)
        w = _all_updated(w)
    else:
        if table.mode != TableMode.RPT_CUTOFF:
            raise ValueError("RPT-style scheme needs an rpt_cutoff-mode table")
        p = cutoff_probs(scheme)
        w = theory_weights(p, table, "smooth" if regime == "smooth" else "l0l1").w
        if regime != "smooth":
            cum, a0, a1 = _l0l1_sums(p, table)
            ratio_terms = cum**2 * a0 / a1**2  # every a1 > 0: no weight is 0

    if regime == "smooth":
        k_raw = delta0 / (eps * float(w.min()))
    elif regime == "l0l1_eps":
        k_raw = 2.0 * delta0 / (eps * float(w.min()))
    elif regime == "l0l1_eps2":
        k_raw = 2.0 * delta0 * float(ratio_terms.sum()) / (eps**2 * float(w.min()) ** 2)
    else:
        raise ValueError(f"unknown regime {regime!r}")

    k = float(math.ceil(k_raw)) if apply_ceil else k_raw
    f, q = marginals(scheme)
    terms = {
        "overhead": cp.c_ov,
        "backward_forward": float(np.dot(cp.c, f)),
        "sharp_update": float(np.dot(cp.c_sharp, q)),
        "min_weight": float(w.min()),
    }
    return CostBreakdown(regime, exp_cost, k, k * exp_cost, terms)


# ---------------------------------------------------------------------------
# Optimal RPT probabilities, smooth regime (exact recursion)
# ---------------------------------------------------------------------------

def smooth_recursion_q(table: SmoothnessTable) -> np.ndarray:
    """Unnormalized solution q of the reduced smooth-regime program.

    q_1 = 2 L0_{1,{1..b}}; r_i = 1 - sum_{s<i} q_s / (2 L0_{i,{s..b}});
    q_i = 2 [r_i]_+ L0_{i,{i..b}}.  Every i with q_i > 0 has its constraint
    tight: sum_{s<=i} q_s / (2 L0_{i,{s..b}}) = 1 (mass could otherwise be
    shifted deeper at a strict gain).
    """
    b = table.b
    lmat = _rpt_matrix(table)
    if np.any(lmat[np.tril_indices(b)] <= 0.0):
        raise ValueError("all L0 constants for cutoffs s <= i must be present and > 0")
    q = np.zeros(b)
    q[0] = 2.0 * lmat[0, 0]
    for i in range(2, b + 1):
        r = 1.0 - sum(q[s - 1] / (2.0 * lmat[i - 1, s - 1]) for s in range(1, i))
        q[i - 1] = 2.0 * max(r, 0.0) * lmat[i - 1, i - 1]
    return q


def optimal_rpt_probs_smooth(table: SmoothnessTable) -> np.ndarray:
    """Cost-minimizing cutoff probabilities under layer-wise smoothness.

    Normalization of ``smooth_recursion_q``.  The optimum depends only on the
    smoothness constants, not on the cost parameters.
    """
    q = smooth_recursion_q(table)
    return q / q.sum()


def full_network_optimal_smooth(table: SmoothnessTable) -> bool:
    """Whether always updating all layers minimizes the smooth-regime cost.

    Holds iff the first layer attains the maximal full-network constant
    (ties count as optimal, with a non-unique optimum).
    """
    vals = table.full_network_l0()
    return bool(vals[0] >= vals.max())


# ---------------------------------------------------------------------------
# Optimal partitioned-submodel probabilities (closed form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionProbs:
    p: np.ndarray
    min_expected_cost: float | None


def optimal_partition_probs(
    blocks: Sequence[frozenset[int]],
    table: SmoothnessTable,
    objective: str = "smooth",
    cp: CostParams | None = None,
) -> PartitionProbs:
    """Block probabilities proportional to each block's worst-case constant.

    ``objective='smooth'`` uses L0, ``'l0l1_eps'`` the same closed form with
    L1.  When cost params are supplied the minimal total cost
    2 * sum_k d_k * max_{i in B_k} L_{i,B_k} is returned alongside, with
    d_k = iteration_cost(B_k).
    """
    which = "l0" if objective == "smooth" else "l1"
    if objective not in ("smooth", "l0l1_eps"):
        raise ValueError(f"unknown objective {objective!r}")
    blocks = [frozenset(blk) for blk in blocks]
    if any(len(blk) == 0 for blk in blocks):
        raise ValueError("empty block")
    maxes = []
    for k, blk in enumerate(blocks, start=1):
        vals = [table.require(i, k, which) for i in sorted(blk)]
        if min(vals) <= 0.0:
            raise ValueError(f"block {k} has a non-positive constant")
        maxes.append(max(vals))
    maxes = np.asarray(maxes)
    p = maxes / maxes.sum()
    cost = None
    if cp is not None:
        d = [iteration_cost(blk, cp) for blk in blocks]
        cost = 2.0 * float(np.dot(d, maxes))
    return PartitionProbs(p, cost)


# ---------------------------------------------------------------------------
# Cost objectives over RPT cutoff probabilities
# ---------------------------------------------------------------------------

def _rpt_d_vector(cp: CostParams) -> np.ndarray:
    """d_i = c_ov + sum_{j >= i} (c_j + c_sharp_j); strictly decreasing in i."""
    tail = np.cumsum((np.asarray(cp.c) + np.asarray(cp.c_sharp))[::-1])[::-1]
    return cp.c_ov + tail


def rpt_cost_objective_smooth(
    p: Sequence[float], table: SmoothnessTable, cp: CostParams
) -> float:
    """Smooth-regime RPT cost ratio: expected iteration cost over min_i w_i."""
    return float(_smooth_objective(np.asarray(p, dtype=float)[None, :], table)(cp)[0])


def rpt_cost_objective_l0l1(
    p: Sequence[float],
    table: SmoothnessTable,
    cp: CostParams,
    regime: str = "eps",
) -> float:
    """(L0, L1)-regime RPT cost objective for a cutoff vector p.

    ``eps``:  (sum_i d_i p_i) / min_i [(sum_{s<=i} p_s)^2 / sum_{s<=i} p_s L1].
    ``eps2``: like ``eps`` but with the 1/eps^2 iteration term, which also
    involves the L0 constants.
    """
    return float(_l0l1_objective(table, cp, regime)(np.asarray(p, dtype=float)[None, :])[0])


def _l0l1_objective(
    table: SmoothnessTable, cp: CostParams, regime: str
) -> Callable[[np.ndarray], np.ndarray]:
    """The vectorized (L0, L1) objective over (N, b) arrays of cutoff vectors.

    The cost vector and the table's dense L0 and L1 cutoff matrices are built
    once, here, for every array the returned function is given.
    """
    if regime not in ("eps", "eps2"):
        raise ValueError(f"unknown regime {regime!r}")
    d = _rpt_d_vector(cp)
    l0t, l1t = _rpt_matrix(table, "l0").T, _rpt_matrix(table, "l1").T

    def objective(grid: np.ndarray) -> np.ndarray:
        num = grid @ d
        cum, a0, a1 = np.cumsum(grid, axis=-1), grid @ l0t, grid @ l1t
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(a1 > 0.0, cum**2 / a1, np.where(cum > 0.0, np.inf, 0.0))
        min_ratio = ratio.min(axis=1)
        out = np.full(grid.shape[0], np.inf)
        ok = min_ratio > 0.0
        if regime == "eps":
            out[ok] = num[ok] / min_ratio[ok]
            return out
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(a1 > 0.0, cum**2 * a0 / a1**2, np.where(cum > 0.0, np.inf, 0.0))
        out[ok] = terms[ok].sum(axis=1) * num[ok] / min_ratio[ok] ** 2
        return out

    return objective


def _smooth_objective(grid: np.ndarray, table: SmoothnessTable) -> Callable[[CostParams], np.ndarray]:
    """The vectorized smooth-regime objective over an (N, b) array of cutoff vectors, as a
    function of the cost parameters.

    The denominator, min_i w_i of each cutoff vector, depends on the table and
    the grid alone, so it is computed once, here, for every cost it is priced at.
    """
    lower = np.tri(table.b, dtype=bool)
    inv = np.zeros((table.b, table.b))
    inv[lower] = 0.5 / _rpt_matrix(table)[lower]  # inv[i-1, s-1] = 1 / (2 L0_{i,{s..b}})
    den = (grid @ inv.T).min(axis=1)
    ok = den > 0.0

    def objective(cp: CostParams) -> np.ndarray:
        out = np.full(grid.shape[0], np.inf)
        out[ok] = (grid @ _rpt_d_vector(cp))[ok] / den[ok]
        return out

    return objective


# ---------------------------------------------------------------------------
# Simplex grids and brute-force oracle
# ---------------------------------------------------------------------------

@functools.cache
def simplex_grid(b: int, resolution_denominator: int) -> np.ndarray:
    """Probability vectors with entries multiple of 1/n, ascending lexicographic order.

    Stars and bars: each ascending choice of b - 1 bar places among n + b - 1
    slots gives the parts between the bars, and ``itertools.combinations``
    yields the choices, and so the parts, in ascending lexicographic order.
    The returned array is cached and read-only; copy before mutating.
    """
    n = resolution_denominator
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n + b - 1), b - 1)), dtype=int
    ).reshape(math.comb(n + b - 1, b - 1), b - 1)
    grid = (np.diff(bars, prepend=-1, append=n + b - 1) - 1) / float(n)
    grid.setflags(write=False)
    return grid


def brute_force_optimal_probs(
    objective: Callable[[np.ndarray], float],
    b: int,
    resolution_denominator: int = 200,
) -> np.ndarray:
    """Exhaustive minimizer of ``objective`` over the simplex grid.

    Ties break to the first point in ascending lexicographic order (so a
    constant objective returns (0, ..., 0, 1)).  Test oracle only; the grid has
    C(n + b - 1, b - 1) points.
    """
    grid = simplex_grid(b, resolution_denominator)
    best_val = math.inf
    best = grid[0]
    for row in grid:
        val = objective(row)
        if val < best_val:
            best_val = val
            best = row
    return best.copy()


# ---------------------------------------------------------------------------
# (L0, L1) numeric solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L0L1Probs:
    """Solver output plus the first-layer-condition diagnostics."""

    p: np.ndarray
    value: float
    regime: str
    vertex_value: float          # objective at p = (1, 0, ..., 0)
    vertex_beaten: bool          # a strictly better p than the vertex was found
    first_layer_l1_is_max: bool  # L1_{1,[b]} == max_i L1_{i,[b]}


def optimal_rpt_probs_l0l1(
    table: SmoothnessTable,
    cp: CostParams,
    regime: str = "eps",
) -> L0L1Probs:
    """Best cutoff vector found for the (L0, L1) cost objective.

    The reduced program has a nonconvex feasible set, so this runs a
    deterministic simplex-grid enumeration followed by mass transfers with a
    halving step (strict-improvement hill descent), from one coordinate to
    another or to all others in proportion, never more than the source
    holds, so the result stays on the simplex.  Results are reproducible and
    oracle-checkable; limited to b <= 8.
    """
    b = table.b
    if b > L0L1_MAX_LAYERS:
        raise ValueError(
            f"b={b} exceeds the grid-solver limit {L0L1_MAX_LAYERS}; "
            "group layers and use optimal_partition_probs instead"
        )
    if table.l1 is None:
        raise ValueError("table must carry L1 constants")
    n = L0L1_GRID_DENOMINATOR[b]
    grid = simplex_grid(b, n)
    objective = _l0l1_objective(table, cp, regime)
    vals = objective(grid)
    best_idx = int(np.argmin(vals))
    best = grid[best_idx].copy()
    best_val = float(vals[best_idx])

    step = 1.0 / n
    for _ in range(L0L1_REFINE_ROUNDS):
        improved = False
        for i in range(b):
            # j = b sends the mass to all the other coordinates in proportion
            # to theirs, which follows a kink of the objective's min where
            # every pair transfer ascends
            for j in range(b + 1):
                # an improving transfer may have drained best[i]: re-check it
                # for every j, and never move more mass than it holds
                move = min(step, best[i])
                if j == i or move <= 0.0:
                    continue
                cand = best.copy()
                cand[i] = 0.0
                if j < b:
                    cand[j] += move
                elif cand.sum() > 0.0:
                    cand += move * cand / cand.sum()
                else:
                    continue
                cand[i] = best[i] - move
                val = float(objective(cand[None, :])[0])
                if val < best_val:
                    best, best_val, improved = cand, val, True
        if not improved:
            step /= 2.0
            if step < 1e-7:
                break

    vertex = np.zeros(b)
    vertex[0] = 1.0
    vertex_val = float(objective(vertex[None, :])[0])
    if vertex_val <= best_val:
        best, best_val = vertex, vertex_val
    full_l1 = np.array([table.require(i, 1, "l1") for i in range(1, b + 1)])
    return L0L1Probs(
        p=best,
        value=best_val,
        regime=regime,
        vertex_value=vertex_val,
        vertex_beaten=best_val < vertex_val,
        first_layer_l1_is_max=bool(full_l1[0] >= full_l1.max()),
    )


# ---------------------------------------------------------------------------
# tau-nice cost scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauScanRow:
    tau: int
    smoothness_factor: float  # A(tau) = max_i L_{i,tau}
    cost_factor: float        # B(tau), provably decreasing in tau
    product: float


@dataclass(frozen=True)
class TauScan:
    rows: tuple[TauScanRow, ...]
    cost_factor_strictly_decreasing: bool

    def argmin_tau(self) -> int:
        return min(self.rows, key=lambda r: r.product).tau


def tau_nice_cost_scan(
    cp: CostParams, l0_of: Callable[[int, int], float]
) -> TauScan:
    """Expected-cost factors A(tau) * B(tau) under tau-nice sampling.

    Assumes the constants depend on the layer and the subset size only:
    ``l0_of(i, tau) = L_{i, S}`` for any |S| = tau.  B(tau) collects the cost
    side and is decreasing in tau (strictly when c_ov > 0); A(tau) is the
    worst-case constant.  When the constants do not grow with tau the product
    is minimized at tau = b; when they grow linearly (and any sharp cost is
    positive) at tau = 1.
    """
    b = cp.b
    rows = []
    for tau in range(1, b + 1):
        a = max(l0_of(i, tau) for i in range(1, b + 1))
        denom = math.comb(b - 1, tau - 1)
        bfac = (b / tau) * cp.c_ov + sum(cp.c_sharp)
        bfac += sum(
            cp.c[j - 1] * (b / tau - math.comb(b - j, tau) / denom)
            for j in range(1, b + 1)
        )
        rows.append(TauScanRow(tau, a, bfac, a * bfac))
    strictly = all(
        rows[t].cost_factor < rows[t - 1].cost_factor for t in range(1, len(rows))
    )
    return TauScan(tuple(rows), strictly)
