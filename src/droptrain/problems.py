"""Desk-scale objectives with controllable layer-wise smoothness.

Three problem families share one duck-typed interface (``b``, ``shapes``,
``f_star``, ``stacked_oracle(groups)`` and the per-layer reference
``value_and_grad(layers)``):

* ``SeparableQuadratic`` -- per-layer quadratics with no cross terms; the
  curvature may be a scalar per layer or an elementwise weight array, so the
  per-layer Hessian spectrum (and hence the slack in the descent inequality)
  is fully controllable while f* = 0 stays exact.
* ``CoupledQuadratic`` -- adjacent layers coupled through fixed linear maps,
  which makes the layer-wise constants genuinely depend on which other layers
  move; constants come from block operator norms of the assembled Hessian.
* ``TinyMlp`` -- a small dense network with manual backpropagation, a
  truncated backward pass (gradients only for layers >= s), and
  ``value_and_grad_from_prefix``, which takes a frozen prefix's activations
  from the caller's previous pass and counts the multiply-accumulate
  operations it spends on the rest.  The network keeps no activations of
  its own: the oracle that runs the passes owns them.

``stacked_oracle(groups)`` binds a problem to its caller's layer groups (each
with a ``shape`` and 1-based ``members``, as ``optimizer.LayerGroup`` has),
checking the shapes once.  The oracle it returns takes one (n, m, k) stack
of layers per group and the frozen-prefix length, and returns f, one
gradient stack per group and the forward MACs (None for the quadratics).
It is the only gradient path ``optimizer.run`` takes.  The two quadratics
build their target, weight, curvature and tilt stacks for those groups, and
stack the coupling maps per (left group, right group) pair; each keeps the
per-layer formula's BLAS calls and order of additions, so f and the
gradients equal the per-layer formulas bit for bit whatever the grouping.
Their ``value_and_grad`` is that oracle on one stack per layer, built once
per instance.

``stoch_grad`` turns gradients the caller already holds into a stochastic
sample by adding zero-mean Gaussian noise scaled so that the expected squared
Frobenius noise norm per layer equals sigma_i^2; it evaluates nothing itself.
It draws the noise of every noisy layer, in layer order, in one call, laid
out by ``NoiseSpec.layout``.  ``optimizer.run`` does not call it: it adds the
same noise, by the same layout, to the rows of its gradient stacks, so
``stoch_grad`` is the per-layer reference that ``verify`` and the tests
compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costmodel import SmoothnessTable, TableMode
from .geometry import NormKind, norm_ratio_squared
from .sampling import EpochShiftRpt, FullNetwork, PartitionedSubmodel, Rpt, SamplingScheme

__all__ = [
    "SeparableQuadratic",
    "CoupledQuadratic",
    "TinyMlp",
    "NoiseSpec",
    "stoch_grad",
    "smoothness_constants",
]


def _as_layer_list(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    return [np.asarray(a, dtype=float) for a in arrays]


def _groups_by(keys: Sequence) -> list[list[int]]:
    """0-based indices grouped by equal key, groups in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _stack_of(arrays: Sequence[np.ndarray], ids: list[int]) -> np.ndarray:
    """The arrays at the 0-based ``ids`` copied into one float stack."""
    return np.array([arrays[i] for i in ids], dtype=float)


def _row_index(rows: list[int]) -> slice | list[int]:
    """Rows of a stack as a slice when they are consecutive (a view), else as a list."""
    if rows and rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


def _row_dots(a: np.ndarray, b: np.ndarray) -> list[float]:
    """``a[j] @ b[j]`` for each row j, each the dot product of two vectors."""
    return (a[:, None, :] @ b[:, :, None]).reshape(len(a)).tolist()


def _group_ids(groups, shapes: list[tuple[int, int]]) -> list[list[int]]:
    """The 0-based members of the caller's layer groups, checked against the layer shapes.

    Each group has ``shape`` and 1-based ``members``; together the groups
    must hold every layer once, each of its group's shape.
    """
    ids = [[i - 1 for i in group.members] for group in groups]
    if sorted(i for g in ids for i in g) != list(range(len(shapes))) or any(
        shapes[i] != tuple(group.shape) for group, g in zip(groups, ids) for i in g
    ):
        raise ValueError("layer shapes do not match the problem")
    return ids


def _layer_order(groups: list[list[int]]) -> list[int]:
    """Position of each layer, in layer order, among the groups' members listed group by group."""
    flat = [i for g in groups for i in g]
    return sorted(range(len(flat)), key=flat.__getitem__)


class _SeparableStacks:
    """f and the gradient stacks of a ``SeparableQuadratic`` for one grouping of its layers.

    Called with one (n, m, k) stack of layers per group; returns f, one
    gradient stack per group and no MACs.  Each layer's term is summed over
    its own entries and the terms are added in layer order, so f equals the
    per-layer sum bit for bit whatever the grouping.
    """

    def __init__(self, prob: "SeparableQuadratic", groups: list[list[int]]) -> None:
        self._targets = [_stack_of(prob.targets, ids) for ids in groups]
        self._weights = [_stack_of(prob.weights, ids) for ids in groups]
        self._order = _layer_order(groups)

    def __call__(self, stacks: list[np.ndarray], frozen: int = 0):
        terms, grads = [], []
        for x, a, w in zip(stacks, self._targets, self._weights):
            e = x - a
            we = w * e
            terms += (we * e).sum(axis=(1, 2)).tolist()
            grads.append(we)
        val = 0.0
        for j in self._order:
            val += 0.5 * terms[j]
        return val, grads, None


class _CoupledStacks:
    """f and the gradient stacks of a ``CoupledQuadratic`` for one grouping of its layers.

    The curvatures, targets and tilts are stacked per group, and the coupling
    maps per (left group, right group) pair.  Each product is the BLAS call
    of the per-layer formula and each sum runs in its order, so the result
    equals it bit for bit whatever the grouping:
    f = 1/2 sum_i a_i e_i.e_i, then + coupling e_i.R_i e_{i+1} map by map,
    then + tilt_i.e_i; grad_i = a_i e_i + coupling R_{i-1}^T e_{i-1}, then
    + coupling R_i e_{i+1}, then + tilt_i.
    """

    def __init__(self, prob: "CoupledQuadratic", groups: list[list[int]]) -> None:
        self._coupling = prob.coupling
        self._curvatures = prob.curvatures
        self._order = _layer_order(groups)
        where = {i: (g, row) for g, ids in enumerate(groups) for row, i in enumerate(ids)}
        self._targets = [_stack_of(prob.targets, ids).reshape(len(ids), -1) for ids in groups]
        self._curvature_cols = [
            np.array([prob.curvatures[i] for i in ids])[:, None] for ids in groups
        ]
        self._tilts = None
        if prob.tilt is not None:
            self._tilts = [_stack_of(prob.tilt, ids).reshape(len(ids), -1) for ids in groups]
        self._maps = []
        pairs = [(where[i][0], where[i + 1][0]) for i in range(prob.b - 1)]
        for ids in _groups_by(pairs):
            left, right = pairs[ids[0]]
            self._maps.append((
                ids, np.array([prob.maps[i] for i in ids]),
                left, _row_index([where[i][1] for i in ids]),
                right, _row_index([where[i + 1][1] for i in ids]),
            ))

    def __call__(self, stacks: list[np.ndarray], frozen: int = 0):
        sq, tilt_dots, errs, grads = [], [], [], []
        for g, x in enumerate(stacks):
            e = x.reshape(len(x), -1) - self._targets[g]
            sq += _row_dots(e, e)
            if self._tilts is not None:
                tilt_dots += _row_dots(self._tilts[g], e)
            errs.append(e)
            grads.append(self._curvature_cols[g] * e)
        val = 0.5 * sum(a * sq[j] for a, j in zip(self._curvatures, self._order))
        cross = [0.0] * (len(self._curvatures) - 1)
        forward = []
        for ids, r, left, left_rows, right, right_rows in self._maps:
            e_left = errs[left][left_rows]
            r_next = (r @ errs[right][right_rows][:, :, None])[:, :, 0]
            for i, v in zip(ids, _row_dots(e_left, r_next)):
                cross[i] = v
            r_back = (r.transpose(0, 2, 1) @ e_left[:, :, None])[:, :, 0]
            grads[right][right_rows] += self._coupling * r_back
            forward.append((left, left_rows, r_next))
        for left, left_rows, r_next in forward:
            grads[left][left_rows] += self._coupling * r_next
        for v in cross:
            val += self._coupling * v
        if self._tilts is not None:
            for j in self._order:
                val += tilt_dots[j]
            for grad, t in zip(grads, self._tilts):
                grad += t
        return float(val), [grad.reshape(x.shape) for grad, x in zip(grads, stacks)], None


class _MlpPasses:
    """A ``TinyMlp``'s passes on layer stacks; it owns the activations of the last pass.

    Each call is one ``value_and_grad_from_prefix`` call through the network
    instance, on per-layer views of the stacks, reusing the frozen prefix of
    the previous call's activations; the gradients are stacked once per group.
    """

    def __init__(self, mlp: "TinyMlp", groups: list[list[int]]) -> None:
        self._mlp = mlp
        self._groups = groups
        self._rows = [None] * mlp.b  # (group, row) of each layer
        for g, ids in enumerate(groups):
            for row, i in enumerate(ids):
                self._rows[i] = (g, row)
        self._acts = None

    def __call__(self, stacks: list[np.ndarray], frozen: int):
        layers = [stacks[g][row] for g, row in self._rows]
        f, grads, self._acts, macs = self._mlp.value_and_grad_from_prefix(
            layers, self._acts, frozen
        )
        return f, [_stack_of(grads, ids) for ids in self._groups], macs


class _Quadratic:
    """What the two quadratics share: ``b`` and ``shapes`` from their targets, the
    stacked oracle of their ``_Stacks`` class, and ``value_and_grad`` through it."""

    _Stacks: type

    @property
    def b(self) -> int:
        return len(self.targets)

    @property
    def shapes(self) -> list[tuple[int, int]]:
        return [a.shape for a in self.targets]

    def stacked_oracle(self, groups):
        """``(stacks, frozen) -> (f, gradient stacks, None)`` on one stack per group in ``groups``.

        ``groups`` are the caller's layer groups (``shape`` and 1-based
        ``members``); the shapes are checked here, once.
        """
        return self._Stacks(self, _group_ids(groups, self.shapes))

    @functools.cached_property
    def _shape_oracle(self):
        groups = _groups_by(self.shapes)
        return groups, _layer_order(groups), self._Stacks(self, groups)

    def value_and_grad(self, layers: Sequence[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        """f and the per-layer gradients: the stacked oracle on one float stack per layer shape.

        That oracle is built on the first call and kept, so the problem's
        targets, weights, curvatures, maps and tilt are fixed after
        construction.
        """
        if [np.shape(x) for x in layers] != self.shapes:
            raise ValueError("layer shapes do not match the problem")
        groups, order, oracle = self._shape_oracle
        f, grads, _ = oracle([_stack_of(layers, ids) for ids in groups], 0)
        rows = [row for grad in grads for row in grad]
        return f, [rows[j] for j in order]


class SeparableQuadratic(_Quadratic):
    """f(X) = sum_i 1/2 <W_i * (X_i - A_i), X_i - A_i> with elementwise weights.

    ``curvatures[i]`` may be a positive scalar (the classic a_i/2 ||X_i - A_i||^2
    layer) or an array of positive entry weights matching the layer shape.
    The minimum is X = A with f* = 0.
    """

    _Stacks = _SeparableStacks

    def __init__(self, targets: Sequence[np.ndarray], curvatures: Sequence) -> None:
        self.targets = _as_layer_list(targets)
        if len(curvatures) != len(self.targets):
            raise ValueError("one curvature per layer required")
        self.weights = []
        for a, w in zip(self.targets, curvatures):
            warr = np.broadcast_to(np.asarray(w, dtype=float), a.shape).copy()
            if np.any(warr <= 0.0):
                raise ValueError("curvatures must be positive")
            self.weights.append(warr)
        self.f_star = 0.0

    def layer_l0(self, i: int) -> float:
        """Exact Euclidean-norm curvature bound for layer i (1-based): max weight."""
        return float(self.weights[i - 1].max())


class CoupledQuadratic(_Quadratic):
    """Adjacent-layer coupled quadratic with exact subset-dependent constants.

    f(X) = sum_i a_i/2 ||X_i - A_i||_F^2
         + coupling * sum_{i<b} <vec(X_i - A_i), R_i vec(X_{i+1} - A_{i+1})>
         + <tilt, vec(X - A)>

    The coupling maps R_i are normalized to unit operator norm, so the overall
    Hessian is block tridiagonal with off-diagonal blocks of norm ``coupling``.
    Positive semidefiniteness is checked at construction; f* comes from a
    direct linear solve on the assembled (desk-scale) Hessian.
    """

    _Stacks = _CoupledStacks

    def __init__(
        self,
        targets: Sequence[np.ndarray],
        curvatures: Sequence[float],
        coupling: float,
        tilt: Sequence[np.ndarray] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.targets = _as_layer_list(targets)
        self.curvatures = [float(a) for a in curvatures]
        if len(self.curvatures) != self.b or any(a <= 0 for a in self.curvatures):
            raise ValueError("need one positive curvature per layer")
        self.coupling = float(coupling)
        dims = [a.size for a in self.targets]
        rng = rng or np.random.default_rng(0)
        self.maps = []
        for i in range(self.b - 1):
            r = rng.standard_normal((dims[i], dims[i + 1]))
            op = np.linalg.norm(r, 2)
            self.maps.append(r / op if op > 0 else r)
        self.tilt = None
        if tilt is not None:
            self.tilt = _as_layer_list(tilt)
            if [t.shape for t in self.tilt] != self.shapes:
                raise ValueError("tilt shapes must match layer shapes")

        self._hessian = self._assemble_hessian()
        eigmin = float(np.linalg.eigvalsh(self._hessian).min())
        if eigmin < -1e-10:
            raise ValueError(f"Hessian not PSD (min eigenvalue {eigmin:.3e}); reduce coupling")
        if self.tilt is None:
            self.f_star = 0.0
        else:
            t = np.concatenate([x.ravel() for x in self.tilt])
            zstar = np.linalg.lstsq(self._hessian, -t, rcond=None)[0]
            self.f_star = float(0.5 * zstar @ self._hessian @ zstar + t @ zstar)

    def _assemble_hessian(self) -> np.ndarray:
        dims = [a.size for a in self.targets]
        offs = np.concatenate([[0], np.cumsum(dims)])
        h = np.zeros((offs[-1], offs[-1]))
        for i, a in enumerate(self.curvatures):
            h[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = a * np.eye(dims[i])
        for i, r in enumerate(self.maps):
            blk = self.coupling * r
            h[offs[i] : offs[i + 1], offs[i + 1] : offs[i + 2]] = blk
            h[offs[i + 1] : offs[i + 2], offs[i] : offs[i + 1]] = blk.T
        return h

    def block_norm(self, i: int, j: int) -> float:
        """Operator norm of Hessian block (i, j), 1-based."""
        if i == j:
            return self.curvatures[i - 1]
        if abs(i - j) == 1:
            return abs(self.coupling)  # maps are unit-norm
        return 0.0

    def layer_l0(self, i: int, active: frozenset[int]) -> float:
        """Valid Euclidean constant for layer i over a set: sum of its block norms in S.

        For symmetric H and any perturbation supported on S,
        <G, H G> <= sum_{i in S} (sum_{j in S} ||H_ij||) ||G_i||^2, so these
        row sums of block operator norms certify the layer-wise bound; they
        shrink as the active set shrinks (nested-set monotonicity).
        """
        return sum(self.block_norm(i, j) for j in active)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-layer additive Gaussian gradient noise with E||noise_i||_F^2 = sigma_i^2."""

    sigmas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        for j, sigma in enumerate(self.sigmas):
            if not 0.0 <= sigma < math.inf:
                raise ValueError(f"sigmas[{j}] must be finite and >= 0, got {sigma}")

    def layout(self, sizes: Sequence[int]) -> tuple[list[int | None], list[float], int]:
        """Where each layer's noise lies in the one draw, its scale, and the draw's length.

        Layer i (0-based, ``sizes[i]`` entries) with a non-zero sigma takes
        ``sizes[i]`` standard normals from offset ``offsets[i]`` of one
        ``standard_normal(length)`` draw, in layer order, scaled by
        ``sigma_i / sqrt(sizes[i])``; a zero sigma has offset None and draws nothing.
        """
        if len(self.sigmas) != len(sizes):
            raise ValueError("need one sigma per layer")
        offsets, scales, length = [], [], 0
        for sigma, size in zip(self.sigmas, sizes):
            offsets.append(length if sigma else None)
            scales.append(sigma / math.sqrt(size) if sigma else 0.0)
            length += size if sigma else 0
        return offsets, scales, length


class TinyMlp:
    """Dense network with manual backprop, truncated backward, and prefix reuse.

    Layer l computes z_l = W_l a_{l-1}; hidden layers apply tanh (default) or
    relu, the last layer is linear, and the loss is mean squared error against
    the stored targets over the in-memory batch.  tanh keeps finite-difference
    checks clean; relu is available with looser tolerances near kinks.
    """

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        inputs: np.ndarray,
        targets: np.ndarray,
        activation: str = "tanh",
    ) -> None:
        self.weights = _as_layer_list(weights)
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets_out = np.asarray(targets, dtype=float)
        if activation not in ("tanh", "relu"):
            raise ValueError("activation must be 'tanh' or 'relu'")
        self.activation = activation
        for l in range(1, self.b):
            if self.weights[l].shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(f"layer {l + 1} input dim mismatch")
        if self.weights[0].shape[1] != self.inputs.shape[0]:
            raise ValueError("first layer does not match input dimension")
        if self.targets_out.shape != (self.weights[-1].shape[0], self.inputs.shape[1]):
            raise ValueError("targets shape must be (out_dim, n_samples)")
        self.f_star = 0.0  # MSE lower bound; not attained in general

    @staticmethod
    def synthetic(
        layer_sizes: Sequence[int],
        n_samples: int = 64,
        n_clusters: int = 3,
        activation: str = "tanh",
        seed: int = 0,
    ) -> "TinyMlp":
        """Hermetic instance: Gaussian-cluster inputs and targets from the seed.

        Layer l's weights are 0.5 * N(0, 1) / sqrt(fan-in).
        """
        rng = np.random.default_rng(seed)
        d0, dout = layer_sizes[0], layer_sizes[-1]
        centers = rng.standard_normal((n_clusters, d0)) * 2.0
        labels = rng.integers(0, n_clusters, size=n_samples)
        x = centers[labels].T + 0.3 * rng.standard_normal((d0, n_samples))
        y = rng.standard_normal((n_clusters, dout))[labels].T
        weights = [
            0.5
            * rng.standard_normal((layer_sizes[l + 1], layer_sizes[l]))
            / np.sqrt(layer_sizes[l])
            for l in range(len(layer_sizes) - 1)
        ]
        return TinyMlp(weights, x, y, activation)

    @property
    def b(self) -> int:
        return len(self.weights)

    @property
    def shapes(self) -> list[tuple[int, int]]:
        return [w.shape for w in self.weights]

    def _pass(self, layers, prefix, first_layer):
        """(loss, gradients of layers >= first_layer, activations a_0..a_{b-1}, MACs).

        The forward runs on from the activation prefix a_0..a_s it is given;
        MACs count out x in x n per recomputed layer plus out x n for the loss.
        phi'(z_l) comes from a_l = phi(z_l): 1 - a^2 for tanh, [a > 0] for
        relu, bit for bit.
        """
        weights = _as_layer_list(layers)
        if [w.shape for w in weights] != self.shapes:
            raise ValueError("layer shapes do not match the network")
        acts = list(prefix)
        macs = 0
        for l in range(len(acts) - 1, self.b):
            z = weights[l] @ acts[-1]
            macs += weights[l].shape[0] * weights[l].shape[1] * acts[-1].shape[1]
            if l < self.b - 1:
                acts.append(np.tanh(z) if self.activation == "tanh" else np.maximum(z, 0.0))
        residual = z - self.targets_out
        n = self.inputs.shape[1]
        loss = 0.5 * float(np.sum(residual**2)) / n
        delta = residual / n
        grads = []
        for l in range(self.b, first_layer - 1, -1):
            a = acts[l - 1]
            grads.append(delta @ a.T)
            if l > first_layer:
                dphi = 1.0 - a * a if self.activation == "tanh" else a > 0.0
                delta = (weights[l - 1].T @ delta) * dphi
        return loss, grads[::-1], acts, macs + z.size

    def value_and_grad(self, layers: Sequence[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        loss, grads, _, _ = self._pass(layers, [self.inputs], 1)
        return loss, grads

    def truncated_grad(
        self, layers: Sequence[np.ndarray], first_layer: int
    ) -> tuple[float, list[np.ndarray]]:
        """Loss and gradients for layers >= first_layer (1-based); prefix gradients skipped.

        Backpropagation runs from the output down to ``first_layer`` only; the
        computed slices are bit-identical to the full pass because the shared
        recursion is evaluated in the same order.
        """
        if not 1 <= first_layer <= self.b:
            raise ValueError(f"first_layer must be in [1, {self.b}], got {first_layer}")
        loss, grads, _, _ = self._pass(layers, [self.inputs], first_layer)
        return loss, grads

    def value_and_grad_from_prefix(
        self, layers: Sequence[np.ndarray], acts: list[np.ndarray] | None, frozen: int
    ) -> tuple[float, list[np.ndarray], list[np.ndarray], int]:
        """(loss, all b gradients, activations, MACs spent), reusing ``frozen`` layers.

        ``acts`` are the activations this returned for an earlier pass (None
        before the first); the caller guarantees that layers 1..frozen are
        unchanged since -- nothing compares them -- so only layers > frozen
        are recomputed.  The backward is full.
        """
        if not 0 <= frozen < self.b:
            raise ValueError(f"frozen must be in [0, {self.b}), got {frozen}")
        if frozen and (acts is None or len(acts) != self.b):
            raise ValueError("reusing a prefix needs the activations of an earlier pass")
        return self._pass(layers, acts[: frozen + 1] if frozen else [self.inputs], 1)

    def stacked_oracle(self, groups):
        """``(stacks, frozen) -> (f, gradient stacks, MACs)`` on one stack per group in ``groups``.

        Each call is a ``value_and_grad_from_prefix`` pass that reuses the
        activations of the oracle's previous pass for layers 1..frozen, which
        the caller guarantees are unchanged since; the backward is full.
        """
        return _MlpPasses(self, _group_ids(groups, self.shapes))


# ---------------------------------------------------------------------------
# Stochastic gradient samples
# ---------------------------------------------------------------------------

def stoch_grad(
    grads: Sequence[np.ndarray],
    noise: NoiseSpec | None,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Unbiased stochastic gradient: the exact ``grads`` plus per-layer Gaussian noise.

    One ``standard_normal`` call draws the noise of every layer with a
    non-zero sigma, in layer order, which gives the same numbers as one call
    per layer; a zero sigma draws nothing and returns that layer's gradient
    unchanged.
    """
    if noise is None:
        return list(grads)
    offsets, scales, length = noise.layout([g.size for g in grads])
    draws = rng.standard_normal(length) if length else None
    return [
        g if start is None else g + scale * draws[start : start + g.size].reshape(g.shape)
        for g, start, scale in zip(grads, offsets, scales)
    ]


def smoothness_constants(
    problem,
    scheme: SamplingScheme,
    norms: Sequence[NormKind],
    secant_samples: int = 200,
) -> SmoothnessTable:
    """Layer-wise constants for the sets the scheme can activate.

    Exact for quadratics: separable problems have subset-independent constants
    (max curvature weight); coupled problems use block-operator-norm row sums.
    Spectral-norm layers multiply the Euclidean constant by
    ``norm_ratio_squared``, min(m, n), the exact worst-case
    Frobenius-to-spectral ratio (tight for scalar-curvature separable layers).
    TinyMlp constants are sampled-secant upper estimates and the table is
    flagged approximate.  The table has no L1 map, which ``GenSmoothInverse``
    reads as L1 = 0.
    """
    b = problem.b
    norms = list(norms)
    if len(norms) != b:
        raise ValueError("need one norm kind per layer")
    spectral_factor = [norm_ratio_squared(k, s) for k, s in zip(norms, problem.shapes)]

    if isinstance(scheme, PartitionedSubmodel):
        mode = TableMode.PARTITION
        keyed_sets = {
            k: blk for k, blk in enumerate(scheme.blocks, start=1)
        }
    elif isinstance(scheme, (Rpt, FullNetwork, EpochShiftRpt)):
        mode = TableMode.RPT_CUTOFF
        keyed_sets = {s: frozenset(range(s, b + 1)) for s in range(1, b + 1)}
    else:
        raise ValueError(
            "constants are tabulated for RPT-style or partitioned schemes only"
        )

    approximate = False
    l0: dict[tuple[int, int], float] = {}
    if isinstance(problem, SeparableQuadratic):
        for key, active in keyed_sets.items():
            for i in active:
                l0[(i, key)] = problem.layer_l0(i) * spectral_factor[i - 1]
    elif isinstance(problem, CoupledQuadratic):
        for key, active in keyed_sets.items():
            for i in active:
                l0[(i, key)] = problem.layer_l0(i, active) * spectral_factor[i - 1]
    elif isinstance(problem, TinyMlp):
        approximate = True
        est = _mlp_secant_estimates(problem, secant_samples)
        for key, active in keyed_sets.items():
            for i in active:
                l0[(i, key)] = est[i - 1] * spectral_factor[i - 1]
    else:
        raise TypeError(f"no constant rule for {type(problem).__name__}")

    return SmoothnessTable(mode, b, l0, approximate=approximate)


def _mlp_secant_estimates(mlp: TinyMlp, samples: int) -> np.ndarray:
    """Per-layer curvature upper estimates from random secants around the weights.

    Single-layer perturbations only, drawn from seed 0; a 1.5x safety factor
    absorbs the sampling gap.  Upper estimate, not a certificate.
    """
    rng = np.random.default_rng(0)
    est = np.zeros(mlp.b)
    base = [w.copy() for w in mlp.weights]
    for _ in range(samples):
        i = int(rng.integers(0, mlp.b))
        x = [w + 0.2 * rng.standard_normal(w.shape) for w in base]
        gamma = rng.standard_normal(base[i].shape)
        gamma *= 0.1 / np.linalg.norm(gamma)
        f0, g0 = mlp.value_and_grad(x)
        xp = [w.copy() for w in x]
        xp[i] = xp[i] + gamma
        f1, _ = mlp.value_and_grad(xp)
        gap = f1 - f0 - float(np.sum(g0[i] * gamma))
        est[i] = max(est[i], 2.0 * gap / float(np.sum(gamma * gamma)))
    return np.maximum(est, 1e-8) * 1.5
