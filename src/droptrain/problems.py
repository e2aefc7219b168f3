"""Desk-scale objectives with controllable layer-wise smoothness.

Three problem families share one duck-typed interface (``b``, ``shapes``,
``f_star``, ``stacked_oracle(layout)`` and the per-layer reference
``value_and_grad(layers)``):

* ``SeparableQuadratic`` -- per-layer quadratics with no cross terms; the
  curvature may be a scalar per layer or an elementwise weight array, so the
  per-layer Hessian spectrum (and hence the slack in the descent inequality)
  is fully controllable while f* = 0 stays exact.
* ``CoupledQuadratic`` -- adjacent layers coupled through fixed linear maps,
  which makes the layer-wise constants genuinely depend on which other layers
  move; constants are row sums of the Hessian's block operator norms (the
  curvatures and ``|coupling|``).  The same row sums certify the Hessian
  PSD at construction; only when they cannot is the dense Hessian
  assembled.  The minimum is at the targets, with f* = 0.
* ``TinyMlp`` -- a small dense network with manual backpropagation.  Its
  one pass, ``_pass(layers, prefix, first_layer)``, runs the forward on
  from a given activation prefix, backpropagates down to ``first_layer``
  and counts the multiply-accumulate operations it spends.  The network
  keeps no activations of its own: its stacked oracle owns those of its
  last pass and hands their prefix to the next.

``Layout`` is the one description of how layers sit in group stacks: it
groups the layers by one key per layer whose first item is the layer's shape
(``optimizer.LayerModel`` keys by shape and norm kind), and carries each
group's key, shape and 1-based members, each layer's (group, row), each
group's active rows for an active set, and the copies between per-layer
lists and stacks.  ``stacked_oracle(layout)`` binds a problem to its
caller's layout, checking it against the problem's layer shapes once.  The
oracle it returns is called as ``oracle(stacks, forward_from, backward_to)``:
one (n, m, k) stack of layers per group, the layer its forward starts at and
the layer its backward stops at, 1 <= forward_from <= b and
1 <= backward_to <= b + 1 (b + 1 computes f only).  It returns f, one
gradient stack per group, whose rows below ``backward_to`` read NaN, and the
forward MACs (None for the quadratics, which ignore both ends and return
every row).  It is the only gradient path ``optimizer.run`` takes, as
``stacked_oracle(model.layout)``.  The two
quadratics build their target, weight and curvature stacks for those
groups, and stack the coupling maps per (left group, right group) pair;
each keeps the per-layer formula's BLAS calls and order of additions, so f
and the gradients equal the per-layer formulas bit for bit whatever the
grouping.  Their ``value_and_grad`` is that oracle on one stack per layer
shape, built once per instance.

``stoch_grad`` turns gradients the caller already holds into a stochastic
sample by adding zero-mean Gaussian noise scaled so that the expected squared
Frobenius noise norm per layer equals sigma_i^2; it evaluates nothing itself.
Each noisy layer draws its own ``standard_normal`` of its shape, in layer
order.  ``optimizer.run`` does not call it: it makes the same draws, in the
same order, from its plans, adds each active layer's draw to that layer's
row of its gradient stacks and discards a frozen layer's.  ``stoch_grad`` is
the per-layer reference that ``verify`` and the tests compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import Sequence

import numpy as np

from .costmodel import SmoothnessTable, TableMode
from .geometry import NormKind, norm_ratio_squared
from .sampling import EpochShiftRpt, FullNetwork, PartitionedSubmodel, Rpt, SamplingScheme
from .sampling import _entry, _entry_fault, _json_list, _json_matrix, _json_number, _positive_finite

__all__ = [
    "Layout",
    "SeparableQuadratic",
    "CoupledQuadratic",
    "TinyMlp",
    "NoiseSpec",
    "stoch_grad",
    "smoothness_constants",
]


def _as_layer_list(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    return [np.asarray(a, dtype=float) for a in arrays]


def _row_index(rows: list[int]) -> slice | list[int]:
    """Rows of a stack as a slice when they are consecutive (a view), else as a list."""
    if rows and rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


def _row_dots(a: np.ndarray, b: np.ndarray) -> list[float]:
    """``a[j] @ b[j]`` for each row j, each the dot product of two vectors."""
    return (a[:, None, :] @ b[:, :, None]).reshape(len(a)).tolist()


class Layout:
    """Layers as the rows of group stacks, one group per distinct key.

    Built from one key per layer whose first item is the layer's shape;
    groups come in order of their key's first appearance.  ``keys[g]``,
    ``shapes[g]`` and ``members[g]`` are group g's key, shape and 1-based
    layers, ascending, and ``where[i]`` is layer i + 1's (group, row).
    """

    def __init__(self, keys: Sequence[tuple]) -> None:
        groups: dict = {}
        for i, key in enumerate(keys, start=1):
            groups.setdefault(key, []).append(i)
        self.keys = list(groups)
        self.shapes = [tuple(key[0]) for key in self.keys]
        self.members = [tuple(ids) for ids in groups.values()]
        where = {i: (g, row) for g, ids in enumerate(self.members) for row, i in enumerate(ids)}
        self.where = [where[i] for i in range(1, len(keys) + 1)]

    def active_rows(self, g: int, active: frozenset[int]) -> tuple[slice | list[int], list[int]]:
        """The rows of group g's active members in its stack, and their layers.

        The rows are a slice when they are consecutive, as a suffix ``{s..b}``
        always is; otherwise a list, which gathers and scatters.
        """
        rows = [j for j, i in enumerate(self.members[g]) if i in active]
        return _row_index(rows), [self.members[g][j] for j in rows]

    def check(self, shapes: Sequence[tuple[int, int]]) -> None:
        """Refuse a layout whose layers are not ``shapes``, one per layer."""
        if len(shapes) != len(self.where) or any(
            tuple(shapes[i]) != self.shapes[g] for i, (g, _) in enumerate(self.where)
        ):
            raise ValueError("layer shapes do not match the problem")

    def stack(self, arrays: Sequence) -> list[np.ndarray]:
        """``arrays``, one per layer, copied into one float stack per group."""
        return [np.array([arrays[i - 1] for i in ids], dtype=float) for ids in self.members]

    def rows(self, stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per-layer views of the rows of one stack per group, in layer order."""
        return [stacks[g][row] for g, row in self.where]


class _SeparableStacks:
    """f and the gradient stacks of a ``SeparableQuadratic`` for one ``Layout`` of its layers.

    Called with one (n, m, k) stack of layers per group; returns f, one
    gradient stack per group and no MACs.  Each layer's term is summed over
    its own entries and the terms are added in layer order, so f equals the
    per-layer sum bit for bit whatever the grouping.
    """

    def __init__(self, prob: "SeparableQuadratic", layout: Layout) -> None:
        self._targets = layout.stack(prob.targets)
        self._weights = layout.stack(prob.weights)
        self._where = layout.where

    def __call__(self, stacks: list[np.ndarray], forward_from: int, backward_to: int):
        terms, grads = [], []
        for x, a, w in zip(stacks, self._targets, self._weights):
            e = x - a
            we = w * e
            terms.append((we * e).sum(axis=(1, 2)).tolist())
            grads.append(we)
        val = 0.0
        for g, row in self._where:
            val += 0.5 * terms[g][row]
        return val, grads, None


class _CoupledStacks:
    """f and the gradient stacks of a ``CoupledQuadratic`` for one ``Layout`` of its layers.

    The curvatures and targets are stacked per group, and the coupling maps
    per (left group, right group) pair.  Each product is the BLAS call of the
    per-layer formula and each sum runs in its order, so the result equals it
    bit for bit whatever the grouping:
    f = 1/2 sum_i a_i e_i.e_i, then + coupling e_i.R_i e_{i+1} map by map;
    grad_i = a_i e_i + coupling R_{i-1}^T e_{i-1}, then + coupling R_i e_{i+1}.
    """

    def __init__(self, prob: "CoupledQuadratic", layout: Layout) -> None:
        self._coupling = prob.coupling
        self._curvatures = prob.curvatures
        self._where = where = layout.where
        self._targets = [a.reshape(len(a), -1) for a in layout.stack(prob.targets)]
        self._curvature_cols = [a[:, None] for a in layout.stack(prob.curvatures)]
        pairs: dict = {}  # the maps i by (left group, right group), in order of first appearance
        for i in range(prob.b - 1):
            pairs.setdefault((where[i][0], where[i + 1][0]), []).append(i)
        self._maps = []
        for (left, right), ids in pairs.items():
            self._maps.append((
                ids, np.array([prob.maps[i] for i in ids]),
                left, _row_index([where[i][1] for i in ids]),
                right, _row_index([where[i + 1][1] for i in ids]),
            ))

    def __call__(self, stacks: list[np.ndarray], forward_from: int, backward_to: int):
        sq, errs, grads = [], [], []
        for g, x in enumerate(stacks):
            e = x.reshape(len(x), -1) - self._targets[g]
            sq.append(_row_dots(e, e))
            errs.append(e)
            grads.append(self._curvature_cols[g] * e)
        val = 0.5 * sum(a * sq[g][row] for a, (g, row) in zip(self._curvatures, self._where))
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
        return float(val), [grad.reshape(x.shape) for grad, x in zip(grads, stacks)], None


class _MlpPasses:
    """A ``TinyMlp``'s passes on layer stacks; it owns the activations of the last pass.

    Each call is one ``TinyMlp._pass`` on per-layer views of the stacks.  Its
    forward starts at layer ``forward_from`` from the activations
    a_0..a_{forward_from - 1} of the last pass, which the caller guarantees
    are unchanged since -- nothing compares them.  The cache starts as [a_0],
    so a first call is a fresh pass whatever ``forward_from``.  Its backward
    stops at layer ``backward_to``, the rows below read NaN, and the
    gradients are stacked once per group.
    """

    def __init__(self, mlp: "TinyMlp", layout: Layout) -> None:
        self._mlp = mlp
        self._layout = layout
        self._acts = [mlp.inputs]

    def __call__(self, stacks: list[np.ndarray], forward_from: int, backward_to: int):
        b = self._mlp.b
        if not (1 <= forward_from <= b and 1 <= backward_to <= b + 1):
            raise ValueError(f"forward_from must be in [1, {b}] and backward_to in [1, {b + 1}], "
                             f"got {forward_from} and {backward_to}")
        layers, prefix = self._layout.rows(stacks), self._acts[:forward_from]
        f, grads, self._acts, macs = self._mlp._pass(layers, prefix, backward_to)
        unset = [np.full(x.shape, np.nan) for x in layers[: backward_to - 1]]
        return f, self._layout.stack(unset + grads), macs


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

    def stacked_oracle(self, layout: Layout):
        """``(stacks, forward_from, backward_to) -> (f, gradient stacks, None)`` on one stack
        per group of ``layout``; both ends are ignored.

        The layout's shapes are checked here, once.
        """
        layout.check(self.shapes)
        return self._Stacks(self, layout)

    @functools.cached_property
    def _shape_oracle(self):
        layout = Layout([(s,) for s in self.shapes])
        return layout, self._Stacks(self, layout)

    def value_and_grad(self, layers: Sequence[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        """f and the per-layer gradients: the stacked oracle on one float stack per layer shape.

        That oracle is built on the first call and kept, so the problem's
        targets, weights, curvatures and maps are fixed after
        construction.
        """
        layout, oracle = self._shape_oracle
        layout.check([np.shape(x) for x in layers])
        f, grads, _ = oracle(layout.stack(layers), 1, 1)
        return f, layout.rows(grads)


class SeparableQuadratic(_Quadratic):
    """f(X) = sum_i 1/2 <W_i * (X_i - A_i), X_i - A_i> with elementwise weights.

    ``curvatures[i]`` may be a positive scalar (the classic a_i/2 ||X_i - A_i||^2
    layer) or an array of positive entry weights matching the layer shape.
    The minimum is X = A with f* = 0.  A curvature that is not a positive
    finite number or a finite matrix of its layer's shape with positive
    entries is named ``curvatures[j]``, as ``path.curvatures[j]:`` when
    ``path`` is given.
    """

    _Stacks = _SeparableStacks

    def __init__(
        self, targets: Sequence[np.ndarray], curvatures: Sequence, path: str | None = None
    ) -> None:
        self.targets = _as_layer_list(targets)
        _json_list(curvatures, _entry(path, "curvatures"), len(self.targets))
        self.weights = []
        for j, (a, w) in enumerate(zip(self.targets, curvatures)):
            name = f"curvatures[{j}]"
            if isinstance(w, (list, tuple, np.ndarray)):
                warr = _json_matrix(w, _entry(path, name), a.shape).copy()
            else:
                warr = np.full(a.shape, _json_number(w, _entry(path, name)))
            if not np.all((0.0 < warr) & (warr < math.inf)):
                raise _entry_fault(path, name, f"must be positive and finite, got {w}")
            self.weights.append(warr)
        self.f_star = 0.0

    def layer_l0(self, i: int) -> float:
        """Exact Euclidean-norm curvature bound for layer i (1-based): max weight."""
        return float(self.weights[i - 1].max())


class CoupledQuadratic(_Quadratic):
    """Adjacent-layer coupled quadratic with exact subset-dependent constants.

    f(X) = sum_i a_i/2 ||X_i - A_i||_F^2
         + coupling * sum_{i<b} <vec(X_i - A_i), R_i vec(X_{i+1} - A_{i+1})>

    The coupling maps R_i are normalized to unit operator norm, so the overall
    Hessian is block tridiagonal with off-diagonal blocks of norm ``coupling``.
    The constructor proves it positive semidefinite without assembling it when
    the block row sums do (block Gershgorin): with deg_i the number of maps
    at layer i (1 at the ends, 2 inside, 0 when b = 1),
    z'Hz >= sum_i (a_i - |coupling| deg_i) ||z_i||^2, so
    a_i >= |coupling| deg_i (1 + 1e-9) for every layer suffices; the margin
    covers the rounding of the normalization.  Otherwise it assembles the
    dense Hessian (desk scale) and refuses it if its smallest eigenvalue is
    below -1e-10.  A PSD Hessian puts the minimum at X = A, with f* = 0.  A
    curvature that is not a positive finite number is named
    ``curvatures[j]``, and a coupling that breaks semidefiniteness
    ``coupling``, as ``path.<name>:`` when ``path`` is given.
    """

    _Stacks = _CoupledStacks
    _psd_margin = 1e-9  # the certificate's relative margin, a few million ulps

    def __init__(
        self,
        targets: Sequence[np.ndarray],
        curvatures: Sequence[float],
        coupling: float,
        rng: np.random.Generator | None = None,
        path: str | None = None,
    ) -> None:
        self.targets = _as_layer_list(targets)
        _json_list(curvatures, _entry(path, "curvatures"), self.b)
        self.curvatures = list(_positive_finite(curvatures, "curvatures", path))
        self.coupling = float(coupling)
        dims = [a.size for a in self.targets]
        rng = rng or np.random.default_rng(0)
        self.maps = []
        for i in range(self.b - 1):
            r = rng.standard_normal((dims[i], dims[i + 1]))
            op = np.linalg.norm(r, 2)
            self.maps.append(r / op if op > 0 else r)
        self.f_star = 0.0
        # block Gershgorin: z'Hz >= sum_i (a_i - |c| deg_i) ||z_i||^2, deg_i = maps at layer i
        per_map = abs(self.coupling) * (1 + self._psd_margin)
        if all(a >= per_map * ((i > 0) + (i < self.b - 1)) for i, a in enumerate(self.curvatures)):
            return
        eigmin = float(np.linalg.eigvalsh(self._assemble_hessian()).min())
        if eigmin < -1e-10:
            message = f"makes the Hessian not PSD (min eigenvalue {eigmin:.3e}); reduce it"
            raise _entry_fault(path, "coupling", message)

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
    """Per-layer additive Gaussian gradient noise with E||noise_i||_F^2 = sigma_i^2.

    Each sigma must be a finite number >= 0; a fault is named ``sigmas[j]``,
    as ``path.sigmas[j]:`` when ``path`` is given.
    """

    sigmas: tuple[float, ...]
    path: InitVar[str | None] = None  # the document path that names a faulty entry

    def __post_init__(self, path):
        sigmas = [_json_number(s, _entry(path, f"sigmas[{j}]")) for j, s in enumerate(self.sigmas)]
        object.__setattr__(self, "sigmas", tuple(sigmas))
        for j, sigma in enumerate(sigmas):
            if not 0.0 <= sigma < math.inf:
                raise _entry_fault(path, f"sigmas[{j}]", f"must be finite and >= 0, got {sigma}")


class TinyMlp:
    """Dense network with manual backprop; one pass serves the reference and the oracle.

    Layer l computes z_l = W_l a_{l-1}; hidden layers apply tanh (default) or
    relu, the last layer is linear, and the loss is mean squared error against
    the stored targets over the in-memory batch.  tanh keeps finite-difference
    checks clean; relu is available with looser tolerances near kinks.  Another
    activation is named ``activation``, as ``path.activation:`` when ``path``
    is given.
    """

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        inputs: np.ndarray,
        targets: np.ndarray,
        activation: str = "tanh",
        path: str | None = None,
    ) -> None:
        self.weights = _as_layer_list(weights)
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets_out = np.asarray(targets, dtype=float)
        if activation not in ("tanh", "relu"):
            raise _entry_fault(path, "activation", f"must be 'tanh' or 'relu', got {activation!r}")
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
        path: str | None = None,
    ) -> "TinyMlp":
        """Hermetic instance: Gaussian-cluster inputs and targets from the seed.

        Layer l's weights are 0.5 * N(0, 1) / sqrt(fan-in); ``path`` is the
        constructor's.
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
        return TinyMlp(weights, x, y, activation, path)

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
        return self._pass(layers, [self.inputs], 1)[:2]

    def stacked_oracle(self, layout: Layout):
        """``(stacks, forward_from, backward_to) -> (f, gradient stacks, MACs)`` on one stack
        per group of ``layout``.

        Each call is one pass: its forward reuses the activations of the
        oracle's previous pass below layer ``forward_from``, which the caller
        guarantees are unchanged since, and its backward stops at layer
        ``backward_to``; the gradient rows below it read NaN.
        """
        layout.check(self.shapes)
        return _MlpPasses(self, layout)


# ---------------------------------------------------------------------------
# Stochastic gradient samples
# ---------------------------------------------------------------------------

def stoch_grad(
    grads: Sequence[np.ndarray],
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Unbiased stochastic gradient: the exact ``grads`` plus per-layer Gaussian noise.

    Each layer with a non-zero sigma draws ``rng.standard_normal`` of its
    shape, in layer order, scaled by sigma_i / sqrt(size_i); a zero sigma
    draws nothing and returns that layer's gradient unchanged.
    """
    if len(noise.sigmas) != len(grads):
        raise ValueError("need one sigma per layer")
    return [
        g + sigma / math.sqrt(g.size) * rng.standard_normal(g.shape) if sigma else g
        for g, sigma in zip(grads, noise.sigmas)
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
    flagged approximate.  The table has no L1 map, so ``optimizer.SmoothInverse``
    takes the layer-wise smooth stepsizes 1/L0 on it.
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
    absorbs the sampling gap.  Upper estimate, not a certificate.  A sample
    on layer i + 1 backpropagates only down to that layer, and its perturbed
    loss reruns the forward from that layer on, reusing x's activations below.
    """
    rng = np.random.default_rng(0)
    est = np.zeros(mlp.b)
    base = [w.copy() for w in mlp.weights]
    for _ in range(samples):
        i = int(rng.integers(0, mlp.b))
        x = [w + 0.2 * rng.standard_normal(w.shape) for w in base]
        gamma = rng.standard_normal(base[i].shape)
        gamma *= 0.1 / np.linalg.norm(gamma)
        f0, g0, acts, _ = mlp._pass(x, [mlp.inputs], i + 1)  # g0[0] is layer i + 1's
        xp = list(x)
        xp[i] = x[i] + gamma
        f1 = mlp._pass(xp, acts[: i + 1], mlp.b + 1)[0]  # forward from layer i + 1, loss only
        gap = f1 - f0 - float(np.sum(g0[0] * gamma))
        est[i] = max(est[i], 2.0 * gap / float(np.sum(gamma * gamma)))
    return np.maximum(est, 1e-8) * 1.5
