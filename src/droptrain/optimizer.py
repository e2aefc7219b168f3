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

Every layer is a member of exactly one ``LayerGroup``: the layers that share
its shape and norm kind, worked out once when ``run`` builds its model.
``LayerModel`` stores each group as one contiguous (n, m, k) array, and
``model.layers[i - 1]`` is a view of layer i's row: update it in place and
never rebind it.  ``MomentumState`` stores its buffers the same way.  Each
per-iteration operation runs once per group, not once per layer: the
gradient dual norms (``geometry.dual_norms``), the momentum update, the LMO
or sharp step (``geometry.lmos``, ``geometry.sharps``) and the parameter
update.  Under RPT the active members of a group are a suffix of it, so
this is one slice per stack; other schemes gather and scatter.  A group of
one is a stack of one.  The results equal the per-layer calls bit for bit.

``run`` checks each array once per iteration, by a value it computes anyway:
a gradient by its group's dual norms (``_dual_norms``; the Euclidean norm is
non-finite for any inf or nan entry, and only then are the entries scanned),
f by ``math.isfinite``, and an active momentum by its group's LMO call.  The
deterministic step therefore moves a Euclidean group by ``gamma * grad``
without a second scan, since the Euclidean sharp operator is the identity.
The stacked calls only detect a fault: a group that raises, has a non-finite
dual norm or a vanished step sets a flag, and after the loop one walk over
the layers, with the per-matrix checks, names the lowest failing layer
(``_raise_gradient_fault``, ``_raise_momentum_fault``).  Nothing is walked
while every group passes.

``run`` owns a model exclusively, splits a seedable stream per iteration so
traces replay bit-identically, and stops with a ValueError naming the
iteration and the layer when f, a gradient or a step stops being finite.  The
cost of an active set, and the rate weights and iteration-count bounds the
guarantees are stated with, live in ``costmodel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Sequence

import numpy as np

from . import geometry, problems, sampling
from .costmodel import SmoothnessTable
from .geometry import NormKind

__all__ = [
    "LayerGroup",
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


@dataclass(frozen=True)
class LayerGroup:
    """The layers of one shape and one norm kind: 1-based ``members``, ascending."""

    kind: NormKind
    members: tuple[int, ...]

    def active_rows(self, active: frozenset[int]) -> tuple[slice | list[int], list[int]]:
        """The rows of the active members in the group's stack, and their layers.

        The rows are a slice when they are consecutive, as a suffix ``{s..b}``
        always is; otherwise a list, which gathers and scatters.
        """
        rows = [j for j, i in enumerate(self.members) if i in active]
        layers = [self.members[j] for j in rows]
        if rows and rows[-1] - rows[0] == len(rows) - 1:
            return slice(rows[0], rows[-1] + 1), layers
        return rows, layers


def _stack_rows(arrays: list[np.ndarray], groups: list[LayerGroup]) -> list[np.ndarray]:
    """Copy ``arrays`` into one (n, m, k) stack per group and rebind them to its rows."""
    stacks = []
    for group in groups:
        stack = np.array([arrays[i - 1] for i in group.members], dtype=float)
        for i, row in zip(group.members, stack):
            arrays[i - 1] = row
        stacks.append(stack)
    return stacks


@dataclass
class LayerModel:
    """Ordered layer matrices plus each layer's norm choice; shapes are fixed.

    Every layer belongs to exactly one ``LayerGroup``: the layers that share
    its shape and norm kind.  ``stacks[g]`` holds group g's members as the
    rows of one (n, m, k) array, and ``layers[i - 1]`` is a view of layer
    i's row, so update a layer in place and never rebind it.
    """

    layers: list[np.ndarray]
    norms: list[NormKind]
    groups: list[LayerGroup] = field(init=False, repr=False)
    stacks: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = [geometry.check_matrix(x) for x in self.layers]
        if len(self.norms) != len(self.layers):
            raise ValueError("need one norm kind per layer")
        if not self.layers:
            raise ValueError("at least one layer required")
        members: dict[tuple, list[int]] = {}
        for i, (x, kind) in enumerate(zip(self.layers, self.norms), start=1):
            members.setdefault((x.shape, kind), []).append(i)
        self.groups = [LayerGroup(kind, tuple(ids)) for (_, kind), ids in members.items()]
        self.stacks = _stack_rows(self.layers, self.groups)

    @property
    def b(self) -> int:
        return len(self.layers)


@dataclass
class MomentumState:
    """Per-layer momentum buffers M_i and the one parameter beta in [0, 1] they share.

    ``stoch_step`` stores the buffers as one stack per group of its model
    (``stacks``); ``m[i - 1]`` is then a view of its row, updated in place.
    """

    m: list[np.ndarray]
    beta: float
    _groups: list[LayerGroup] | None = field(default=None, init=False, repr=False)
    _stacks: list[np.ndarray] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.m = list(self.m)
        # beta = 1 is the fresh-gradient endpoint of the convex combination
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")

    def stacks(self, model: LayerModel) -> list[np.ndarray]:
        """The buffers as one stack per group of ``model``, stacked on first use."""
        if self._groups is not model.groups:
            if [np.shape(m) for m in self.m] != [x.shape for x in model.layers]:
                raise ValueError("need one momentum buffer per layer, shaped like the layer")
            self._stacks = _stack_rows(self.m, model.groups)
            self._groups = model.groups
        return self._stacks


def _positive_finite(values, name: str) -> tuple[float, ...]:
    """``values`` as floats, each checked to be positive and finite."""
    values = tuple(float(v) for v in values)
    for j, v in enumerate(values):
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name}[{j}] must be positive and finite, got {v}")
    return values


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
        object.__setattr__(self, "radii", _positive_finite(self.radii, "radii"))


@dataclass(frozen=True)
class HorizonSchedule:
    """t_i = eta_i / (K+1)^{3/4}, beta = (K+1)^{-1/2}, M0 = stochastic gradient at X0.

    The horizon-dependent radius/momentum schedule of the stochastic
    convergence guarantee.  The bound's eta_i caps involve constants that are
    unknown in practice; the default eta_i = 1 matches the shared-constant
    learning rates the training experiments use, and eta is configurable.
    """

    eta: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.eta is not None:
            object.__setattr__(self, "eta", _positive_finite(self.eta, "eta"))

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


def _gather(arrays: Sequence[np.ndarray], layers: Sequence[int]) -> np.ndarray:
    """The arrays of ``layers`` (1-based) copied into one stack."""
    return np.array([arrays[i - 1] for i in layers], dtype=float)


def _raise_gradient_fault(model: LayerModel, grads: Sequence[np.ndarray]) -> NoReturn:
    """Raise ValueError naming the lowest layer whose gradient or its dual norm is not finite."""
    for i, (kind, grad) in enumerate(zip(model.norms, grads), start=1):
        try:
            value = geometry.dual_norm(kind, grad)
        except ValueError as exc:
            raise ValueError(f"layer {i}: gradient: {exc}") from None
        if not math.isfinite(value):
            raise ValueError(f"layer {i}: gradient dual norm is {value}")
    raise ValueError("a stacked gradient check failed that no layer fails alone")


def _raise_momentum_fault(
    model: LayerModel, momentum: MomentumState, active: frozenset[int], radii: np.ndarray,
    ns_config: geometry.NewtonSchulzConfig | None,
) -> NoReturn:
    """Raise ValueError naming the lowest active layer whose LMO step fails or vanishes."""
    for i in sorted(active):
        t = float(radii[i - 1])
        try:
            res = geometry.lmos(model.norms[i - 1], momentum.m[i - 1][None], [t], ns=ns_config)
        except ValueError as exc:
            raise ValueError(f"layer {i}: momentum: {exc}") from None
        if not (res.degenerate[0] or res.step.any()):
            raise ValueError(
                f"layer {i}: the radius-{t} step vanished for a non-zero momentum "
                "(its norm overflows)"
            )
    raise ValueError("a stacked momentum step failed that no layer fails alone")


def _dual_norms(
    model: LayerModel, grads: Sequence[np.ndarray]
) -> tuple[dict[int, float], list[np.ndarray]]:
    """Per-layer gradient dual norms from one stacked call per group, and the gradient stacks.

    Raises ValueError naming the lowest-numbered layer whose gradient or dual
    norm is not finite.
    """
    values, stacks, failed = [0.0] * model.b, [], False
    for group in model.groups:
        stacks.append(_gather(grads, group.members))
        try:
            norms = geometry.dual_norms(group.kind, stacks[-1]).tolist()
        except ValueError:
            failed = True
            continue
        failed = failed or not all(map(math.isfinite, norms))
        for i, value in zip(group.members, norms):
            values[i - 1] = value
    if failed:
        _raise_gradient_fault(model, grads)
    return dict(enumerate(values, start=1)), stacks


def _apply_det_updates(
    model: LayerModel,
    grad_stacks: list[np.ndarray],
    dual_norms: dict[int, float],
    active: frozenset[int],
    policy: SmoothInverse | GenSmoothInverse,
    table: SmoothnessTable,
) -> dict[int, float]:
    """In-place sharp-operator updates on the active layers, once per group; returns stepsizes.

    The Euclidean sharp operator is the identity, so a Euclidean group moves
    by ``gamma * grad`` directly; ``_dual_norms`` has already checked those
    gradients.  Spectral groups take ``geometry.sharps``.
    """
    key = table.key_for(active)
    applied = {}
    for i in sorted(active):
        l0 = table.require(i, key)
        denom = l0
        if isinstance(policy, GenSmoothInverse):
            denom = l0 + table.require(i, key, "l1") * dual_norms[i]
        if not denom > 0.0:  # also refuses nan
            raise ValueError(f"layer {i}: stepsize denominator must be positive, got {denom}")
        applied[i] = 1.0 / denom
    for group, x, g in zip(model.groups, model.stacks, grad_stacks):
        rows, layers = group.active_rows(active)
        if not layers:
            continue
        step = g[rows]
        if group.kind != NormKind.EUCLIDEAN:
            step = geometry.sharps(group.kind, step)
        x[rows] -= np.array([applied[i] for i in layers])[:, None, None] * step
    return applied


def stoch_step(
    model: LayerModel,
    grads: Sequence[np.ndarray],
    momentum: MomentumState,
    active: frozenset[int],
    radii: Sequence[float],
    ns_config: geometry.NewtonSchulzConfig | None = None,
) -> StepReport:
    """One momentum + LMO step on the active layers, once per layer group.

    For i not active, M_i and X_i are untouched (bit-identical).  For active
    layers the momentum is refreshed from ``grads`` (one stochastic gradient
    sample per layer) and the parameters move by the radius-t_i LMO step,
    i.e. a normalized steepest-descent step of primal norm exactly t_i.  A
    zero refreshed momentum leaves the layer in place and is flagged
    degenerate.  A non-finite momentum, or a step that vanishes for a
    non-zero momentum (its norm overflows), raises ValueError naming the
    lowest such layer, after the groups without one have stepped.

    Each group's active members update as one slice of its momentum and
    layer stacks (a gather and scatter when they are not consecutive) and
    take one ``geometry.lmos`` call, on either backend.  ``ns_config``
    switches spectral groups from the exact-SVD LMO to the Newton-Schulz
    approximate orthogonalization, with the same checks (the cheap optimizer
    path; the step norm then only approximates t_i, which is why property
    tests pin the SVD path).
    """
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (model.b,):
        raise ValueError("need one radius per layer")
    beta = momentum.beta
    degenerate, applied, failed = set(), {}, False
    for group, x, m in zip(model.groups, model.stacks, momentum.stacks(model)):
        rows, layers = group.active_rows(active)
        if not layers:
            continue
        m[rows] = (1.0 - beta) * m[rows] + beta * _gather(grads, layers)
        t = radii[[i - 1 for i in layers]]
        try:
            res = geometry.lmos(group.kind, m[rows], t, ns=ns_config)
        except ValueError:
            res = None
        if res is None or not (res.degenerate | res.step.any(axis=(1, 2))).all():
            failed = True  # the call raised, or a step vanished for a non-zero momentum
            continue
        flags = res.degenerate.tolist()
        step = res.step
        if True in flags:
            moved = ~res.degenerate
            rows, step = np.arange(len(x))[rows][moved], step[moved]
        x[rows] += step
        for i, flag, t_i in zip(layers, flags, t.tolist()):
            if flag:
                degenerate.add(i)
            else:
                applied[i] = t_i
    if failed:
        _raise_momentum_fault(model, momentum, active, radii, ns_config)
    return StepReport(
        active=active, applied=dict(sorted(applied.items())), degenerate=frozenset(degenerate)
    )


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
    model = LayerModel(list(x0) if x0 is not None else [np.zeros(s) for s in problem.shapes], norms)

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
        momentum = MomentumState(m0, beta)  # stoch_step copies it into stacks

    reports: list[StepReport] = []
    for k in range(iterations):
        rng = sampling.stream(seed, k + 1)
        scheme_k = scheme
        if isinstance(scheme, sampling.EpochShiftRpt):
            scheme_k = scheme.at(k / iterations)
        active = sampling.sample(scheme_k, rng)
        try:
            norms_map, grad_stacks = _dual_norms(model, grads)
            if deterministic:
                applied = _apply_det_updates(model, grad_stacks, norms_map, active, policy, table)
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
