"""Layer-subset optimizer: freeze the inactive layers, update the active ones.

``run`` is the one step path for both algorithm variants, chosen by the policy:

* smoothness-inverse policies take the exact-gradient sharp-operator step
  ``X_i <- X_i - gamma_i * sharp(grad_i)``, with the stepsize taken from the
  layer-wise smoothness constants (plain or gradient-dependent inverse);
* radius policies take ``stoch_step``, the momentum + LMO step
  ``M_i <- (1 - beta) M_i + beta g_i`` then ``X_i <- X_i + lmo(M_i, t_i)``;
  every applied update has primal norm exactly t_i.

``run`` is also the only gradient caller, once per iterate x_0..x_K; that
gradient feeds the diagnostics, the deterministic step and -- plus noise from
``problems.stoch_grad`` -- the stochastic sample.  The only diagnostics are
f and the gradient dual norms; momentum errors ||M_i - grad_i||_dual are left
to ``verify``, whose descent-lemma check drives ``stoch_step`` itself.  A
problem with ``value_and_grad_from_prefix`` (``TinyMlp``) gets back the
activations the run kept from its last pass and recomputes only layers
>= min S, since a step writes only its active layers; the pass reports the
MACs it spent.

The momentum convention is deliberately (1 - beta) M + beta g with *small*
beta meaning slow incorporation of fresh gradients: the horizon schedule sets
beta = (K+1)^{-1/2}, which only makes sense under this parametrization (the
mainstream Muon convention is the mirror image).

Spectral layers of one shape form a group (``LayerModel.spectral_groups``,
worked out once when ``run`` builds its model).  The dual norms of a group's
gradients, and the SVD-LMO steps of its active layers, each take one stacked
SVD (``geometry.nuclear_norms``, ``geometry.spectral_lmos``) instead of one
per layer; the values equal the per-layer calls bit for bit.  Euclidean
layers, spectral layers with no same-shape partner and the Newton-Schulz
backend stay per layer.

``run`` checks each array once per iteration, by a value it computes anyway:
a gradient by its dual norm (``_dual_norms``; the Euclidean norm is non-finite
for any inf or nan entry, and only then does ``geometry.check_matrix`` scan it
for the message), f by ``math.isfinite``, and an active momentum by its LMO
call.  The deterministic step therefore moves a Euclidean layer by
``gamma * grad`` without a second scan, since the Euclidean sharp operator is
the identity.

``run`` owns a model exclusively, splits a seedable stream per iteration so
traces replay bit-identically, and stops with a ValueError naming the
iteration and the layer when f, a gradient or a step stops being finite.  The
cost of an active set, and the rate weights and iteration-count bounds the
guarantees are stated with, live in ``costmodel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import geometry, problems, sampling
from .costmodel import SmoothnessTable
from .geometry import NormKind

__all__ = [
    "LayerModel",
    "MomentumState",
    "SmoothInverse",
    "GenSmoothInverse",
    "FixedRadius",
    "HorizonSchedule",
    "StepReport",
    "RunResult",
    "stoch_step",
    "run",
]

INIT_STREAM = 0  # stream(seed, 0) feeds initialization; iteration k uses stream(seed, k + 1)


@dataclass
class LayerModel:
    """Ordered layer matrices plus each layer's norm choice; shapes are fixed.

    ``spectral_groups`` lists the 1-based indices of spectral layers that
    share a shape, in ascending groups of two or more.
    """

    layers: list[np.ndarray]
    norms: list[NormKind]
    spectral_groups: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = [geometry.check_matrix(x) for x in self.layers]
        if len(self.norms) != len(self.layers):
            raise ValueError("need one norm kind per layer")
        if not self.layers:
            raise ValueError("at least one layer required")
        by_shape: dict[tuple[int, ...], list[int]] = {}
        for i, (x, kind) in enumerate(zip(self.layers, self.norms), start=1):
            if kind == NormKind.SPECTRAL:
                by_shape.setdefault(x.shape, []).append(i)
        self.spectral_groups = [group for group in by_shape.values() if len(group) > 1]

    @property
    def b(self) -> int:
        return len(self.layers)


@dataclass
class MomentumState:
    """Per-layer momentum buffers M_i and the one parameter beta in [0, 1] they share."""

    m: list[np.ndarray]
    beta: float

    def __post_init__(self):
        # beta = 1 is the fresh-gradient endpoint of the convex combination
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")


@dataclass(frozen=True)
class SmoothInverse:
    """gamma_i = 1 / L0_{i,S}; exact-gradient path."""


@dataclass(frozen=True)
class GenSmoothInverse:
    """gamma_i = 1 / (L0_{i,S} + L1_{i,S} ||grad_i||_dual); exact-gradient path."""


@dataclass(frozen=True)
class FixedRadius:
    """Constant per-layer LMO radii t_i, momentum beta, M0 = stochastic gradient at X0."""

    radii: tuple[float, ...]
    beta: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(t) for t in self.radii))
        if any(t <= 0 for t in self.radii):
            raise ValueError("radii must be positive")


@dataclass(frozen=True)
class HorizonSchedule:
    """t_i = eta_i / (K+1)^{3/4}, beta = (K+1)^{-1/2}, M0 = stochastic gradient at X0.

    The horizon-dependent radius/momentum schedule of the stochastic
    convergence guarantee.  The bound's eta_i caps involve constants that are
    unknown in practice; the default eta_i = 1 matches the shared-constant
    learning rates the training experiments use, and eta is configurable.
    """

    eta: tuple[float, ...] | None = None

    def radii(self, b: int, horizon: int) -> np.ndarray:
        eta = np.ones(b) if self.eta is None else np.asarray(self.eta, dtype=float)
        if eta.shape != (b,):
            raise ValueError("eta must have one entry per layer")
        return eta / (horizon + 1) ** 0.75

    @staticmethod
    def beta(horizon: int) -> float:
        return 1.0 / math.sqrt(horizon + 1)


StepPolicy = SmoothInverse | GenSmoothInverse | FixedRadius | HorizonSchedule


@dataclass
class StepReport:
    """Per-iteration record of what the step saw and applied."""

    active: frozenset[int]
    f_before: float | None = None
    f_after: float | None = None
    grad_dual_norms: dict[int, float] = field(default_factory=dict)
    applied: dict[int, float] = field(default_factory=dict)  # stepsize or radius, active layers
    degenerate: frozenset[int] = frozenset()
    k: int | None = None
    fwd_macs: int | None = None  # forward MACs of the pass at x_{k+1}, when reported


@dataclass
class RunResult:
    """The final model, one report per iteration, and f at x_0 and x_K."""

    model: LayerModel
    reports: list[StepReport]
    f_final: float
    f_initial: float


def _dual_norms(model: LayerModel, grads: Sequence[np.ndarray]) -> dict[int, float]:
    """Per-layer gradient dual norms, one stacked SVD per spectral group.

    Raises ValueError naming the lowest-numbered layer whose gradient or dual
    norm is not finite.
    """
    stacked = {}
    for group in model.spectral_groups:
        try:
            values = geometry.nuclear_norms([grads[i - 1] for i in group])
            stacked.update(zip(group, values.tolist()))
        except ValueError:
            pass  # a member is not finite: the per-layer calls below name the first one
    out = {}
    for i, g in enumerate(grads, start=1):
        try:
            out[i] = stacked[i] if i in stacked else geometry.dual_norm(model.norms[i - 1], g)
        except ValueError as exc:
            raise ValueError(f"layer {i}: gradient: {exc}") from exc
        if not math.isfinite(out[i]):
            raise ValueError(f"layer {i}: gradient dual norm is {out[i]}")
    return out


def _apply_det_updates(
    model: LayerModel,
    grads: Sequence[np.ndarray],
    dual_norms: dict[int, float],
    active: frozenset[int],
    policy: SmoothInverse | GenSmoothInverse,
    table: SmoothnessTable,
) -> dict[int, float]:
    """In-place sharp-operator updates on the active layers; returns stepsizes.

    The Euclidean sharp operator is the identity, so a Euclidean layer moves
    by ``gamma * grad`` directly; ``_dual_norms`` has already checked that
    gradient.  Spectral layers take ``geometry.sharp``.
    """
    key = table.key_for(active)
    applied = {}
    for i in sorted(active):
        l0 = table.require(i, key)
        denom = l0
        if isinstance(policy, GenSmoothInverse):
            denom = l0 + table.require(i, key, "l1") * dual_norms[i]
        if denom <= 0.0:
            raise ValueError(f"non-positive stepsize denominator for layer {i}")
        gamma = 1.0 / denom
        kind = model.norms[i - 1]
        sharp = grads[i - 1] if kind == NormKind.EUCLIDEAN else geometry.sharp(kind, grads[i - 1])
        model.layers[i - 1] -= gamma * sharp
        applied[i] = gamma
    return applied


def stoch_step(
    model: LayerModel,
    grads: Sequence[np.ndarray],
    momentum: MomentumState,
    active: frozenset[int],
    radii: Sequence[float],
    ns_config: geometry.NewtonSchulzConfig | None = None,
) -> StepReport:
    """One momentum + LMO step on the active layers.

    For i not active, M_i and X_i are untouched (bit-identical).  For active
    layers the momentum is refreshed from ``grads`` (one stochastic gradient
    sample per layer) and the parameters move by the radius-t_i LMO step,
    i.e. a normalized steepest-descent step of primal norm exactly t_i.  A
    zero refreshed momentum leaves the layer in place and is flagged
    degenerate.  A non-finite momentum, or a step that vanishes for a
    non-zero momentum (its norm overflows), raises ValueError naming the layer.

    ``ns_config`` switches spectral-norm layers from the exact-SVD LMO to the
    Newton-Schulz approximate orthogonalization (the cheap optimizer path; the
    step norm then only approximates t_i, which is why property tests pin the
    SVD path).  Without it, the active layers of each spectral group share
    one stacked SVD; a zero momentum stays out of that stack and is flagged
    degenerate as above.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (model.b,):
        raise ValueError("need one radius per layer")
    order = sorted(active)
    beta = momentum.beta
    for i in order:
        momentum.m[i - 1] = (1.0 - beta) * momentum.m[i - 1] + beta * grads[i - 1]
    stacked = {}
    groups = model.spectral_groups if ns_config is None else []
    for group in groups:
        members = [i for i in group if i in active]
        if len(members) < 2:
            continue
        try:
            results = geometry.spectral_lmos(
                [momentum.m[i - 1] for i in members], [float(radii[i - 1]) for i in members]
            )
            stacked.update(zip(members, results))
        except ValueError:
            pass  # a bad momentum or radius: the per-layer calls below name the first one
    degenerate = set()
    applied = {}
    for i in order:
        m = momentum.m[i - 1]
        t = float(radii[i - 1])
        try:
            if i in stacked:
                step, is_degenerate = stacked[i]
            elif ns_config is not None and model.norms[i - 1] == NormKind.SPECTRAL and m.any():
                step, is_degenerate = -t * geometry.newton_schulz(m, ns_config), False
            else:
                step, is_degenerate = geometry.lmo(model.norms[i - 1], m, t)
        except ValueError as exc:
            raise ValueError(f"layer {i}: momentum: {exc}") from exc
        if is_degenerate:
            degenerate.add(i)
            continue
        if not step.any():
            raise ValueError(
                f"layer {i}: the radius-{t} step vanished for a non-zero momentum "
                "(its norm overflows)"
            )
        model.layers[i - 1] += step
        applied[i] = t
    return StepReport(active=active, applied=applied, degenerate=frozenset(degenerate))


def run(
    problem,
    scheme: sampling.SamplingScheme | sampling.EpochShiftRpt,
    policy: StepPolicy,
    iterations: int,
    seed: int,
    *,
    norms: Sequence[NormKind] | None = None,
    x0: Sequence[np.ndarray] | None = None,
    table: SmoothnessTable | None = None,
    noise: problems.NoiseSpec | None = None,
    newton_schulz_cfg: geometry.NewtonSchulzConfig | None = None,
    on_step: Callable[[int, LayerModel, StepReport], None] | None = None,
) -> RunResult:
    """Drive the optimizer for ``iterations`` steps; deterministic given the seed.

    Stream-splitting rule: stream(seed, 0) feeds initialization draws (e.g.
    the momentum-initializing stochastic gradient), stream(seed, k + 1) feeds
    iteration k, which consumes first the active-set draw, then the gradient
    noise.  Replaying any iteration therefore needs only (seed, k).

    The problem is evaluated once per iterate (K + 1 passes); each stochastic
    sample is that exact gradient plus noise.  ``on_step`` must not change the
    model: a prefix-reusing pass relies on frozen layers staying as stepped.

    An ``EpochShiftRpt`` scheme is rematerialized each iteration at progress
    k / K.  ``newton_schulz_cfg`` selects the approximate-orthogonalization
    backend for spectral layers on the stochastic path.

    Reports carry f before and after each step and the exact gradients'
    per-layer dual norms as diagnostics (the stochastic path's *updates* see
    only the noisy sample); momentum errors are not computed here.
    A failed step -- a missing smoothness constant, a non-finite gradient,
    momentum or f, a vanished LMO step -- raises with ``iteration k:`` and the
    layer in the message.
    """
    b = problem.b
    if scheme.b != b:
        raise ValueError("scheme and problem disagree on layer count")
    norms = list(norms) if norms is not None else [NormKind.EUCLIDEAN] * b
    layers = (
        [np.array(x, dtype=float) for x in x0]
        if x0 is not None
        else [np.zeros(s) for s in problem.shapes]
    )
    model = LayerModel(layers, norms)

    deterministic = isinstance(policy, (SmoothInverse, GenSmoothInverse))
    if deterministic and table is None:
        raise ValueError("smoothness-inverse policies need a SmoothnessTable")

    evaluate = getattr(problem, "value_and_grad_from_prefix", None)
    if evaluate is None:  # no prefix reuse: a fresh pass, no activations or MACs
        def evaluate(layers, _acts, _frozen):
            return (*problem.value_and_grad(layers), None, None)

    f_curr, grads, acts, _ = evaluate(model.layers, None, 0)
    if not math.isfinite(f_curr):
        raise ValueError(f"f is {f_curr} at x0")
    f_initial = f_curr

    momentum = radii = None
    if isinstance(policy, FixedRadius):
        if len(policy.radii) != b:
            raise ValueError("need one radius per layer")
        radii, beta = np.asarray(policy.radii), policy.beta
    elif isinstance(policy, HorizonSchedule):
        radii, beta = policy.radii(b, iterations), HorizonSchedule.beta(iterations)
    if radii is not None:
        m0 = problems.stoch_grad(grads, noise, sampling.stream(seed, INIT_STREAM))
        momentum = MomentumState([m.copy() for m in m0], beta)

    reports: list[StepReport] = []
    for k in range(iterations):
        rng = sampling.stream(seed, k + 1)
        scheme_k = scheme
        if isinstance(scheme, sampling.EpochShiftRpt):
            scheme_k = scheme.at(k / iterations)
        active = sampling.sample(scheme_k, rng)
        try:
            norms_map = _dual_norms(model, grads)
            if deterministic:
                applied = _apply_det_updates(model, grads, norms_map, active, policy, table)
                report = StepReport(active=active, applied=applied)
            else:
                report = stoch_step(
                    model, problems.stoch_grad(grads, noise, rng), momentum, active, radii,
                    ns_config=newton_schulz_cfg,
                )
            report.grad_dual_norms = norms_map
            report.k = k
            report.f_before = f_curr
            f_curr, grads, acts, report.fwd_macs = evaluate(model.layers, acts, min(active) - 1)
            if not math.isfinite(f_curr):
                raise ValueError(f"f_after is {f_curr} after updating layers {sorted(active)}")
        except (KeyError, ValueError) as exc:
            raise type(exc)(f"iteration {k}: {exc}") from exc
        report.f_after = f_curr
        if on_step is not None:
            on_step(k, model, report)
        reports.append(report)

    return RunResult(model, reports, f_curr, f_initial)
