"""Layer-subset optimizer: freeze the inactive layers, update the active ones.

``run`` is the one step path for both algorithm variants, chosen by the policy:

* smoothness-inverse policies take the exact-gradient sharp-operator step
  ``X_i <- X_i - gamma_i * sharp(grad_i)``, with the stepsize taken from the
  layer-wise smoothness constants (plain or gradient-dependent inverse);
* radius policies take ``stoch_step``, the momentum + LMO step
  ``M_i <- (1 - beta) M_i + beta g_i`` then ``X_i <- X_i + lmo(M_i, t_i)``;
  every applied update has primal norm exactly t_i.

``run`` is also the only gradient caller, once per iterate x_0..x_K, and
it keeps gradients in layer-group stacks from the problem to the step.  Its
one gradient path is the oracle it asks the problem for once,
``stacked_oracle(model.groups)``, which takes the model's stacks and the
frozen-prefix length and returns f, one gradient stack per group and the
forward MACs (or None); it never calls ``value_and_grad``.  ``TinyMlp``'s
oracle keeps the activations of its last pass and recomputes only layers
>= min S, since a step writes only its active layers.  That gradient feeds
the diagnostics, the deterministic step and the stochastic sample, which
adds noise to the active rows only (to every row for M0), drawn as
``problems.stoch_grad`` draws it: one ``standard_normal`` call over every
noisy layer, in layer order.  The only diagnostics are f and the gradient
dual norms; momentum errors ||M_i - grad_i||_dual are left to ``verify``,
whose descent-lemma check drives ``stoch_step`` itself.

What an active set determines -- each group's active rows and layers, their
radii, noise offsets and scales, the smoothness-table key and the stepsizes
1/L0 (or the L0 and L1 of ``GenSmoothInverse`` on a table with an L1 map) --
is a plan, built on the first draw of its set and kept for the run, so a run
builds at most one plan per distinct set it draws (b under RPT).  The
stochastic path builds the full set's plan before the loop, to draw M0
through it.  The plan derives and checks the stepsizes, layer by layer (L0,
L1, denominator), so a missing constant or a bad denominator raises at the
first iteration that draws the set; only ``GenSmoothInverse``'s denominators
are checked again, per iteration, as they are computed.

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
The public ``stoch_step`` stacks a per-layer gradient list and takes the
same step as ``run``.

``run`` checks each array once per iteration, by a value it computes anyway:
a gradient by its group's dual norms (``_dual_norms``; the Euclidean norm is
non-finite for any inf or nan entry, and only then are the entries scanned),
f by ``math.isfinite``, and an active momentum by its group's LMO call.  The
deterministic step therefore moves a Euclidean group by ``gamma * grad``
without a second scan, since the Euclidean sharp operator is the identity.
The stacked calls only detect a fault: a group that raises, has a non-finite
dual norm or a vanished step sets a flag, and after the loop one of two walks
over the layers, with the per-matrix checks, names the lowest failing layer
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
from typing import Callable, NamedTuple, NoReturn, Sequence

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

    shape: tuple[int, ...]
    kind: NormKind
    members: tuple[int, ...]

    def active_rows(self, active: frozenset[int]) -> tuple[slice | list[int], list[int]]:
        """The rows of the active members in the group's stack, and their layers.

        The rows are a slice when they are consecutive, as a suffix ``{s..b}``
        always is; otherwise a list, which gathers and scatters.
        """
        rows = [j for j, i in enumerate(self.members) if i in active]
        return problems._row_index(rows), [self.members[j] for j in rows]


def _stack_rows(arrays: list[np.ndarray], groups: list[LayerGroup]) -> list[np.ndarray]:
    """Copy ``arrays`` into one (n, m, k) stack per group and rebind them to its rows."""
    stacks = []
    for group in groups:
        stack = problems._stack_of(arrays, [i - 1 for i in group.members])
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
        keys = [(x.shape, kind) for x, kind in zip(self.layers, self.norms)]
        self.groups = [
            LayerGroup(*keys[ids[0]], tuple(i + 1 for i in ids)) for ids in problems._groups_by(keys)
        ]
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
    """gamma_i = 1 / (L0_{i,S} + L1_{i,S} ||grad_i||_dual); exact-gradient path.

    A table without an L1 map means L1 = 0, and the run takes ``SmoothInverse``'s
    stepsizes 1/L0, equal bit for bit since the dual norms are finite."""


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


def _layer_rows(model: LayerModel, stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-layer views of the rows of one stack per group of ``model``, in layer order."""
    out = [None] * model.b
    for group, stack in zip(model.groups, stacks):
        for i, row in zip(group.members, stack):
            out[i - 1] = row
    return out


class _Noise(NamedTuple):
    """Where a group's noisy active rows take their noise from the iteration's one draw."""

    rows: list[int] | None  # positions among the group's active rows; None for all of them
    at: slice | np.ndarray  # their entries of the draw, in row order
    shape: tuple[int, ...]  # (noisy rows, m, k)
    scales: np.ndarray  # (noisy rows, 1, 1): sigma_i / sqrt(size_i)


@dataclass
class _GroupStep:
    """One layer group's share of an active set's plan: its active rows and what they take."""

    index: int  # the group's position in ``model.groups``
    kind: NormKind
    rows: slice | list[int]
    layers: list[int]
    radii: np.ndarray | None = None  # t_i of the rows (stochastic path)
    noise: _Noise | None = None
    gammas: np.ndarray | None = None  # (n, 1, 1) stepsizes 1/L0 (without L1)
    l0: np.ndarray | None = None  # L0 and L1 of the rows (GenSmoothInverse with L1)
    l1: np.ndarray | None = None


@dataclass
class _Plan:
    """What an active set determines, built on its first draw and kept for the run."""

    active: frozenset[int]
    groups: list[_GroupStep]  # the groups with active members, in model order
    applied: dict[int, float] | None = None  # stepsizes 1/L0 (without L1), in layer order


def _noise_of(model: LayerModel, st: _GroupStep, layout: tuple) -> _Noise | None:
    """The noise of a group's active rows under ``layout`` (``NoiseSpec.layout``)."""
    offsets, scales, _ = layout
    noisy = [j for j, i in enumerate(st.layers) if offsets[i - 1] is not None]
    if not noisy:
        return None
    shape = (len(noisy),) + tuple(model.groups[st.index].shape)
    size = math.prod(shape[1:])
    starts = [offsets[st.layers[j] - 1] for j in noisy]
    if starts == list(range(starts[0], starts[0] + len(starts) * size, size)):
        at = slice(starts[0], starts[0] + len(starts) * size)  # consecutive: a view
    else:
        at = (np.array(starts)[:, None] + np.arange(size)).ravel()
    column = np.array([scales[st.layers[j] - 1] for j in noisy])[:, None, None]
    return _Noise(None if len(noisy) == len(st.layers) else noisy, at, shape, column)


def _plan(
    model: LayerModel,
    active: frozenset[int],
    radii: np.ndarray | None = None,
    layout: tuple | None = None,
) -> _Plan:
    """Each group's active rows, with their radii and, under ``layout``, their noise."""
    steps = []
    for index, group in enumerate(model.groups):
        rows, layers = group.active_rows(active)
        if layers:
            steps.append(_GroupStep(index, group.kind, rows, layers))
    for st in steps:
        if radii is not None:
            st.radii = radii[[i - 1 for i in st.layers]]
        if layout is not None:
            st.noise = _noise_of(model, st, layout)
    return _Plan(active, steps)


def _plan_stepsizes(
    plan: _Plan,
    policy: SmoothInverse | GenSmoothInverse,
    table: SmoothnessTable,
    dual_norms: dict[int, float],
) -> None:
    """Give each planned group its stepsizes 1/L0, or its L0 and L1 under ``GenSmoothInverse``
    on a table with an L1 map.

    Each active layer, in layer order, raises on a missing L0, then L1, then
    a stepsize denominator under ``dual_norms`` that is not positive.
    """
    key = table.key_for(plan.active)
    generalized = isinstance(policy, GenSmoothInverse) and table.l1 is not None
    l0, l1 = {}, {}
    for i in sorted(plan.active):
        denom = l0[i] = table.require(i, key)
        if generalized:
            l1[i] = table.require(i, key, "l1")
            denom = denom + l1[i] * dual_norms[i]
        if not denom > 0.0:  # also refuses nan
            raise ValueError(f"layer {i}: stepsize denominator must be positive, got {denom}")
    if generalized:
        for st in plan.groups:
            st.l0 = np.array([l0[i] for i in st.layers])
            st.l1 = np.array([l1[i] for i in st.layers])
        return
    plan.applied = {i: 1.0 / v for i, v in l0.items()}
    for st in plan.groups:
        st.gammas = np.array([plan.applied[i] for i in st.layers])[:, None, None]


def _raise_gradient_fault(model: LayerModel, grads: Sequence[np.ndarray]) -> NoReturn:
    """Raise ValueError naming the lowest layer whose gradient or its dual norm is not finite."""
    for i, (kind, grad) in enumerate(zip(model.norms, _layer_rows(model, grads)), start=1):
        try:
            value = geometry.dual_norm(kind, grad)
        except ValueError as exc:
            raise ValueError(f"layer {i}: gradient: {exc}") from None
        if not math.isfinite(value):
            raise ValueError(f"layer {i}: gradient dual norm is {value}")
    raise ValueError("a stacked gradient check failed that no layer fails alone")


def _raise_momentum_fault(
    model: LayerModel, momentum: MomentumState, plan: _Plan,
    ns_config: geometry.NewtonSchulzConfig | None,
) -> NoReturn:
    """Raise ValueError naming the lowest active layer whose LMO step fails or vanishes."""
    radii = {i: t for st in plan.groups for i, t in zip(st.layers, st.radii.tolist())}
    for i, t in sorted(radii.items()):
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
) -> tuple[dict[int, float], list[np.ndarray | None]]:
    """Per-layer gradient dual norms from one stacked call per group of gradient stacks,
    and each group's array of them.

    Raises ValueError naming the lowest-numbered layer whose gradient or dual
    norm is not finite.
    """
    values, norms, failed = [0.0] * model.b, [], False
    for group, grad in zip(model.groups, grads):
        try:
            nrm = geometry.dual_norms(group.kind, grad)
        except ValueError:
            failed = True
            norms.append(None)
            continue
        column = nrm.tolist()
        failed = failed or not all(map(math.isfinite, column))
        for i, value in zip(group.members, column):
            values[i - 1] = value
        norms.append(nrm)
    if failed:
        _raise_gradient_fault(model, grads)
    return dict(enumerate(values, start=1)), norms


def _det_step(
    model: LayerModel, grads: list[np.ndarray], norms: list[np.ndarray], plan: _Plan
) -> dict[int, float]:
    """In-place sharp-operator updates on the plan's rows, once per group; returns stepsizes.

    The Euclidean sharp operator is the identity, so a Euclidean group moves
    by ``gamma * grad`` directly; ``_dual_norms`` has already checked those
    gradients.  Spectral groups take ``geometry.sharps``.  A plan with L0 and
    L1 computes 1 / (L0 + L1 * dn) for each group's rows; a denominator that
    is not positive raises for the lowest such layer, before anything moves.
    """
    if plan.applied is not None:
        gammas = [st.gammas for st in plan.groups]
        applied = dict(plan.applied)
    else:
        gammas, layers, values, faults = [], [], [], []
        for st in plan.groups:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                denom = st.l0 + st.l1 * norms[st.index][st.rows]
                gamma = 1.0 / denom
            faults += [(i, d) for i, d in zip(st.layers, denom.tolist()) if not d > 0.0]  # nan too
            gammas.append(gamma[:, None, None])
            layers += st.layers
            values += gamma.tolist()
        if faults:
            i, denom = min(faults)  # groups run in model order, not layer order
            raise ValueError(f"layer {i}: stepsize denominator must be positive, got {denom}")
        applied = dict(sorted(zip(layers, values)))
    for st, gamma in zip(plan.groups, gammas):
        step = grads[st.index][st.rows]
        if st.kind != NormKind.EUCLIDEAN:
            step = geometry.sharps(st.kind, step)
        model.stacks[st.index][st.rows] -= gamma * step
    return applied


def _samples(
    grads: list[np.ndarray], plan: _Plan, layout: tuple | None, rng: np.random.Generator
) -> list[np.ndarray]:
    """The stochastic gradient sample of each planned group's rows: its exact gradient
    rows plus, on noisy rows, their share of ``problems.stoch_grad``'s one draw."""
    draws = rng.standard_normal(layout[2]) if layout is not None and layout[2] else None
    out = []
    for st in plan.groups:
        sample = grads[st.index][st.rows]
        if st.noise is not None:
            noise = st.noise
            z = draws[noise.at].reshape(noise.shape)
            if noise.rows is None:
                sample = sample + noise.scales * z
            else:
                sample = sample.copy()
                sample[noise.rows] += noise.scales * z
        out.append(sample)
    return out


def _stoch_step(
    model: LayerModel,
    samples: list[np.ndarray],
    momentum: MomentumState,
    plan: _Plan,
    ns_config: geometry.NewtonSchulzConfig | None,
) -> StepReport:
    """``stoch_step`` on one sample stack per planned group."""
    beta, m_stacks = momentum.beta, momentum.stacks(model)
    degenerate, applied, failed = set(), {}, False
    for st, sample in zip(plan.groups, samples):
        x, m, rows = model.stacks[st.index], m_stacks[st.index], st.rows
        m[rows] = (1.0 - beta) * m[rows] + beta * sample
        try:
            res = geometry.lmos(st.kind, m[rows], st.radii, ns=ns_config)
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
        for i, flag, t_i in zip(st.layers, flags, st.radii.tolist()):
            if flag:
                degenerate.add(i)
            else:
                applied[i] = t_i
    if failed:
        _raise_momentum_fault(model, momentum, plan, ns_config)
    return StepReport(
        active=plan.active, applied=dict(sorted(applied.items())),
        degenerate=frozenset(degenerate),
    )


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
    lowest such layer, after the groups without one have stepped.  An active
    layer outside 1..b, or gradients whose count or shapes do not match the
    layers, raise ValueError before anything moves.

    Each group's active members update as one slice of its momentum and
    layer stacks (a gather and scatter when they are not consecutive) and
    take one ``geometry.lmos`` call, on either backend.  ``ns_config``
    switches spectral groups from the exact-SVD LMO to the Newton-Schulz
    approximate orthogonalization, with the same checks (the cheap optimizer
    path; the step norm then only approximates t_i, which is why property
    tests pin the SVD path).  ``run`` takes the same step on gradient stacks.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (model.b,):
        raise ValueError("need one radius per layer")
    if len(grads) != model.b:
        raise ValueError(f"need one gradient per layer, got {len(grads)} for {model.b} layers")
    for i, (grad, x) in enumerate(zip(grads, model.layers), start=1):
        if np.shape(grad) != x.shape:
            raise ValueError(
                f"layer {i}: gradient shape {np.shape(grad)} does not match the layer's {x.shape}"
            )
    for i in sorted(active):
        if not 1 <= i <= model.b:
            raise ValueError(f"active layer {i} is not in 1..{model.b}")
    plan = _plan(model, active, radii)
    samples = [problems._stack_of(grads, [i - 1 for i in st.layers]) for st in plan.groups]
    return _stoch_step(model, samples, momentum, plan, ns_config)


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
    noise.  Replaying any iteration therefore needs only (seed, k).  The
    per-iteration ``sampling.stream(seed, k + 1)`` call is also what the
    benchmark tracer (``benchmarks/tracer.py``) counts as the start of
    iteration k, so it stays one call per iteration.

    The problem is evaluated once per iterate (K + 1 passes), through its
    ``stacked_oracle(model.groups)``; a problem without one raises
    AttributeError before x0 is evaluated.  Each stochastic sample, M0
    included, is that exact gradient plus noise on the sampled rows.
    ``on_step`` must not change the model: a prefix-reusing pass relies on
    frozen layers staying as stepped.

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

    oracle = problem.stacked_oracle(model.groups)
    f_curr, grads, _ = oracle(model.stacks, 0)
    if not math.isfinite(f_curr):
        raise ValueError(f"f is {f_curr} at x0")
    f_initial = f_curr

    plans: dict[frozenset[int], _Plan] = {}  # one per distinct active set, built on its first draw
    momentum = radii = layout = None
    if isinstance(policy, FixedRadius):
        if len(policy.radii) != b:
            raise ValueError("need one radius per layer")
        radii, beta = np.asarray(policy.radii), policy.beta
    elif isinstance(policy, HorizonSchedule):
        radii, beta = policy.radii(b, iterations), HorizonSchedule.beta(iterations)
    if radii is not None:
        if noise is not None:
            layout = noise.layout([x.size for x in model.layers])
        full = frozenset(range(1, b + 1))
        plans[full] = _plan(model, full, radii, layout)
        m0 = _samples(grads, plans[full], layout, sampling.stream(seed, INIT_STREAM))
        # MomentumState.stacks copies M0 on the first step: it shares no row with grads
        momentum = MomentumState(_layer_rows(model, m0), beta)

    reports: list[StepReport] = []
    for k in range(iterations):
        rng = sampling.stream(seed, k + 1)
        scheme_k = scheme
        if isinstance(scheme, sampling.EpochShiftRpt):
            scheme_k = scheme.at(k / iterations)
        active = sampling.sample(scheme_k, rng)
        try:
            norms_map, norms = _dual_norms(model, grads)
            plan = plans.get(active)
            if plan is None:
                plan = _plan(model, active, radii, layout)
                if deterministic:
                    _plan_stepsizes(plan, policy, table, norms_map)
                plans[active] = plan
            if deterministic:
                applied = _det_step(model, grads, norms, plan)
                report = StepReport(active=active, applied=applied)
            else:
                report = _stoch_step(
                    model, _samples(grads, plan, layout, rng), momentum, plan, newton_schulz_cfg
                )
            report.grad_dual_norms = norms_map
            report.k = k
            report.f_before = f_curr
            f_curr, grads, report.fwd_macs = oracle(model.stacks, min(active) - 1)
            if not math.isfinite(f_curr):
                raise ValueError(f"f_after is {f_curr} after updating layers {sorted(active)}")
        except (KeyError, ValueError) as exc:
            raise type(exc)(f"iteration {k}: {exc}") from exc
        report.f_after = f_curr
        if on_step is not None:
            on_step(k, model, report)
        reports.append(report)

    return RunResult(model, reports, f_curr, f_initial)
