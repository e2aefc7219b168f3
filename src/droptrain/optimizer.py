"""Layer-subset optimizer: freeze the inactive layers, update the active ones.

``run`` is the one step path for both algorithm variants, chosen by the policy:

* the smoothness-inverse policy takes the exact-gradient sharp-operator step
  ``X_i <- X_i - gamma_i * sharp(grad_i)``, with the stepsize taken from the
  layer-wise smoothness table: 1/L0, or 1/(L0 + L1 ||grad_i||_dual) when the
  table carries an L1 map;
* radius policies take the momentum + LMO step (``_stoch_step``)
  ``M_i <- (1 - beta) M_i + beta g_i`` then ``X_i <- X_i + lmo(M_i, t_i)``;
  every applied update has primal norm exactly t_i.

``run`` is the only step entry: ``verify`` checks it by driving it and reading
its ``on_step`` hook, not through a copy of its loop.  Both steps return the
same thing, the stepsizes or radii they applied, in layer order, and ``run``
builds each iteration's ``StepReport`` once from them, after f at the new
iterate has passed its check.  A report is read-only, so the one a hook sees
is the one the run returns.

``run`` is also the only gradient caller, once per iterate x_0..x_K, and
it keeps gradients in layer-group stacks from the problem to the step.  Its
one gradient path is the oracle it asks the problem for once,
``stacked_oracle(model.layout)``, called as ``oracle(stacks, forward_from,
backward_to)``: the layer the pass's forward starts at and the layer its
backward stops at.  It returns f, one gradient stack per group (rows below
``backward_to`` read NaN) and the forward MACs (or None); ``run`` never
calls ``value_and_grad``.  ``TinyMlp``'s oracle keeps the activations of its
last pass, so the pass at x_{k+1} starts its forward at min S_k, the lowest
layer the step wrote.  Its backward runs to layer 1, except that the pass at
x_K computes f only when no ``on_step`` hook reads its gradients.  Each
active set is drawn one iteration ahead: S_{k+1} at the end of iteration k,
just before the pass at x_{k+1}, so that pass could stop its backward at
min S_{k+1}.  That gradient feeds
the diagnostics, the deterministic step and the stochastic sample, which
adds noise to the active rows only (to every row for M0).  Each noisy layer,
active or not, draws ``standard_normal`` of its own shape, in layer order,
as ``problems.stoch_grad`` does: a plan lists each noisy layer with its
scale and its place (planned group, row), an active layer's row adds its
draw, and a frozen layer's draw is discarded.  The only
diagnostics are f and the gradient dual norms; momentum errors
||M_i - grad_i||_dual are left to ``verify``, whose descent-lemma check reads
the momentum through ``on_step``.

What an active set determines -- each group's active rows and layers, their
radii, the noisy layers' places and scales, the smoothness-table key and the
stepsizes 1/L0 (or, on a table with an L1 map, the L0 and L1) -- is a plan,
built on the first draw of its set and kept for the run, so a run builds at
most one plan per distinct set it draws (b under RPT).  The stochastic path builds the
full set's plan before the loop, to draw M0 through it.  The plan derives and
checks the stepsizes, layer by layer (L0, L1, denominator), so a missing
constant or a bad denominator raises at the first iteration that draws the
set; only the gradient-dependent denominators of a table with L1 are checked
again, per iteration, as they are computed.

The momentum convention is deliberately (1 - beta) M + beta g with *small*
beta meaning slow incorporation of fresh gradients: the horizon schedule sets
beta = (K+1)^{-1/2}, which only makes sense under this parametrization (the
mainstream Muon convention is the mirror image).

Every layer is a member of exactly one layer group: the layers that share
its shape and norm kind, worked out once when ``run`` builds its model.
``LayerModel.layout``, a ``problems.Layout`` keyed by (shape, norm kind), is
the one description of the groups that the plans, the diagnostics, the
oracle and the momentum read.  ``LayerModel`` stores each group as one
contiguous (n, m, k) array, at the (group, row) places of its layout, and
``model.layers[i - 1]`` is a view of layer i's row: update it in place and
never rebind it.  ``run`` keeps the momentum buffers as one stack per group
of the same layout, and beta beside them, as locals of the run.
Each per-iteration operation runs once per group, not once per layer: the
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
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from . import geometry, problems, sampling
from .costmodel import SmoothnessTable
from .geometry import NormKind
from .sampling import _entry, _entry_fault, _json_number, _positive_finite

__all__ = [
    "LayerModel",
    "SmoothInverse",
    "FixedRadius",
    "HorizonSchedule",
    "StepReport",
    "StepView",
    "RunResult",
    "uses_seed",
    "run",
]

INIT_STREAM = 0  # stream(seed, 0) feeds initialization; iteration k uses stream(seed, k + 1)


@dataclass
class LayerModel:
    """Ordered layer matrices plus each layer's norm choice; shapes are fixed.

    Every layer belongs to exactly one group of ``layout``: the layers that
    share its key, (shape, norm kind).  ``stacks[g]`` holds group g's members
    as the rows of one (n, m, k) array, at the places ``layout`` gives, and
    ``layers[i - 1]`` is a view of layer i's row, so update a layer in place
    and never rebind it.
    """

    layers: list[np.ndarray]
    norms: list[NormKind]
    layout: problems.Layout = field(init=False, repr=False)
    stacks: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = [geometry.check_matrix(x) for x in self.layers]
        if len(self.norms) != len(self.layers):
            raise ValueError("need one norm kind per layer")
        if not self.layers:
            raise ValueError("at least one layer required")
        self.layout = problems.Layout([(x.shape, kind) for x, kind in zip(self.layers, self.norms)])
        self.stacks = self.layout.stack(self.layers)
        self.layers = self.layout.rows(self.stacks)

    @property
    def b(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class SmoothInverse:
    """gamma_i = 1 / (L0_{i,S} + L1_{i,S} ||grad_i||_dual) on a table with an L1 map,
    else gamma_i = 1 / L0_{i,S}; exact-gradient path.

    The table decides the rule: layer-wise (L0, L1)-smoothness with an L1
    map, layer-wise smoothness without one.  The sharp step scales U V^T by
    the nuclear norm, which Newton-Schulz does not give, so it is SVD-only.
    """

    table: SmoothnessTable


@dataclass(frozen=True)
class FixedRadius:
    """Constant per-layer LMO radii t_i, momentum beta, M0 = stochastic gradient at X0.

    Each radius must be a positive finite number and beta a number in [0, 1]
    (beta = 1 is the fresh-gradient endpoint of the convex combination); a
    fault is named as ``path.radii[j]:`` or ``path.beta:`` when ``path`` is given.
    ``ns`` switches the spectral LMO to Newton-Schulz orthogonalization; None
    takes the SVD.
    """

    radii: tuple[float, ...]
    beta: float = 0.9
    path: InitVar[str | None] = None  # the document path that names a faulty entry
    ns: geometry.NewtonSchulzConfig | None = None

    def __post_init__(self, path):
        object.__setattr__(self, "radii", _positive_finite(self.radii, "radii", path))
        object.__setattr__(self, "beta", _json_number(self.beta, _entry(path, "beta")))
        if not 0.0 <= self.beta <= 1.0:
            raise _entry_fault(path, "beta", f"must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class HorizonSchedule:
    """t_i = eta_i / (K+1)^{3/4}, beta = (K+1)^{-1/2}, M0 = stochastic gradient at X0.

    The horizon-dependent radius/momentum schedule of the stochastic
    convergence guarantee.  The bound's eta_i caps involve constants that are
    unknown in practice; the default eta_i = 1 matches the shared-constant
    learning rates the training experiments use, and eta is configurable.
    """

    eta: tuple[float, ...] | None = None
    path: InitVar[str | None] = None  # the document path that names a faulty entry

    def __post_init__(self, path):
        if self.eta is not None:
            object.__setattr__(self, "eta", _positive_finite(self.eta, "eta", path))

    def at(self, b: int, horizon: int) -> FixedRadius:
        """The ``FixedRadius`` this schedule stands for on ``b`` layers over ``horizon`` steps."""
        eta = np.ones(b) if self.eta is None else np.asarray(self.eta, dtype=float)
        if eta.shape != (b,):
            raise ValueError("eta must have one entry per layer")
        radii = eta / (horizon + 1) ** 0.75
        if not radii.all():  # eta is positive: only an underflow gives a zero radius
            raise ValueError(f"eta[{np.argmin(radii)}] / (K+1)^(3/4) rounds to 0 at K = {horizon}")
        return FixedRadius(tuple(radii), 1.0 / math.sqrt(horizon + 1))


StepPolicy = SmoothInverse | FixedRadius | HorizonSchedule


class StepReport(NamedTuple):
    """Read-only record of iteration ``k``: what the step saw and applied.

    ``run`` builds it once, after f at x_{k+1} has passed its check.
    ``grad_dual_norms`` maps every layer to its exact gradient's dual norm at
    x_k; ``applied`` maps each active layer that moved, in layer order, to its
    stepsize (smoothness-inverse) or radius (radius policies).  Both are
    read-only mappings, and setting a field raises, so no reader can rewrite
    a run's record.  A named tuple, not a frozen dataclass: ``run`` builds one
    per iteration, and a frozen dataclass's ``__init__`` costs about three
    times as much.
    """

    active: frozenset[int]
    f_before: float
    f_after: float
    grad_dual_norms: Mapping[int, float]
    applied: Mapping[int, float]
    k: int
    fwd_macs: int | None  # forward MACs of the pass at x_{k+1}, when reported

    @property
    def degenerate(self) -> frozenset[int]:
        """The active layers that did not move: a radius step's zero refreshed momentum."""
        return self.active.difference(self.applied)


class StepView(NamedTuple):
    """What ``on_step`` reads after iteration ``report.k``: read-only views of the run's state.

    ``report`` is the record ``run`` returns for the iteration, read-only
    like the rest.  ``layers`` are x_{k+1}, ``grads`` the exact gradients at
    x_{k+1} and ``momentum`` the buffers M_i after the step (None on the
    deterministic path), one array per layer; a write through any of them
    raises ValueError.
    """

    report: StepReport
    layers: list[np.ndarray]
    momentum: list[np.ndarray] | None
    grads: list[np.ndarray]


@dataclass
class RunResult:
    """The final model, one report per iteration, and f at x_0 and x_K."""

    model: LayerModel
    reports: list[StepReport]
    f_final: float
    f_initial: float


@dataclass
class _GroupStep:
    """One layer group's share of an active set's plan: its active rows and what they take."""

    index: int  # the group's position in ``model.layout``
    kind: NormKind
    rows: slice | list[int]
    layers: list[int]
    radii: np.ndarray | None = None  # t_i of the rows (stochastic path)
    gammas: np.ndarray | None = None  # (n, 1, 1) stepsizes 1/L0 (table without L1)
    l0: np.ndarray | None = None  # L0 and L1 of the rows (table with L1)
    l1: np.ndarray | None = None


@dataclass
class _Plan:
    """What an active set determines, built on its first draw and kept for the run."""

    active: frozenset[int]
    groups: list[_GroupStep]  # the groups with active members, in model order
    noise: list[tuple[tuple[int, ...], float, tuple[int, int] | None]]  # see ``_plan``
    applied: Mapping[int, float] | None = None  # read-only 1/L0 (table without L1), layer order


def _plan(
    model: LayerModel,
    active: frozenset[int],
    radii: np.ndarray | None = None,
    sigmas: Sequence[float] | None = None,
) -> _Plan:
    """Each group's active rows with their radii and, under ``sigmas``, the noisy layers.

    A noisy layer's entry, in layer order, is (its shape, sigma_i / sqrt(size_i),
    its place): the group's place among the planned groups and the row's place
    among the group's active rows, or None when the layer is frozen.
    """
    steps, places = [], {}
    for index, (_, kind) in enumerate(model.layout.keys):
        rows, layers = model.layout.active_rows(index, active)
        if not layers:
            continue
        places.update((i, (len(steps), j)) for j, i in enumerate(layers))
        group_radii = None if radii is None else radii[[i - 1 for i in layers]]
        steps.append(_GroupStep(index, kind, rows, layers, group_radii))
    noise = [
        (x.shape, sigma / math.sqrt(x.size), places.get(i))
        for i, (x, sigma) in enumerate(zip(model.layers, sigmas or ()), start=1) if sigma
    ]
    return _Plan(active, steps, noise)


def _plan_stepsizes(plan: _Plan, table: SmoothnessTable, dual_norms: Mapping[int, float]) -> None:
    """Give each planned group its stepsizes 1/L0, or its L0 and L1 on a table with an L1 map.

    Each active layer, in layer order, raises on a missing L0, then L1, then
    a stepsize denominator under ``dual_norms`` that is not positive.
    """
    key = table.key_for(plan.active)
    generalized = table.l1 is not None
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
    plan.applied = MappingProxyType({i: 1.0 / v for i, v in l0.items()})
    for st in plan.groups:
        st.gammas = np.array([plan.applied[i] for i in st.layers])[:, None, None]


def _raise_gradient_fault(model: LayerModel, grads: Sequence[np.ndarray]) -> NoReturn:
    """Raise ValueError naming the lowest layer whose gradient or its dual norm is not finite."""
    for i, (kind, grad) in enumerate(zip(model.norms, model.layout.rows(grads)), start=1):
        try:
            value = geometry.dual_norm(kind, grad)
        except ValueError as exc:
            raise ValueError(f"layer {i}: gradient: {exc}") from None
        if not math.isfinite(value):
            raise ValueError(f"layer {i}: gradient dual norm is {value}")
    raise ValueError("a stacked gradient check failed that no layer fails alone")


def _raise_momentum_fault(
    model: LayerModel, momentum: list[np.ndarray], plan: _Plan,
    ns_config: geometry.NewtonSchulzConfig | None,
) -> NoReturn:
    """Raise ValueError naming the lowest active layer whose LMO step, on the ``momentum``
    stacks, fails or vanishes."""
    radii = {i: t for st in plan.groups for i, t in zip(st.layers, st.radii.tolist())}
    m = model.layout.rows(momentum)
    for i, t in sorted(radii.items()):
        try:
            res = geometry.lmos(model.norms[i - 1], m[i - 1][None], [t], ns=ns_config)
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
) -> tuple[Mapping[int, float], list[np.ndarray | None]]:
    """Per-layer gradient dual norms from one stacked call per group of gradient stacks, as a
    read-only mapping, and each group's array of them.

    Raises ValueError naming the lowest-numbered layer whose gradient or dual
    norm is not finite.
    """
    values, norms, failed = [0.0] * model.b, [], False
    for (_, kind), members, grad in zip(model.layout.keys, model.layout.members, grads):
        try:
            nrm = geometry.dual_norms(kind, grad)
        except ValueError:
            failed = True
            norms.append(None)
            continue
        column = nrm.tolist()
        failed = failed or not all(map(math.isfinite, column))
        for i, value in zip(members, column):
            values[i - 1] = value
        norms.append(nrm)
    if failed:
        _raise_gradient_fault(model, grads)
    return MappingProxyType(dict(enumerate(values, start=1))), norms


def _det_step(
    model: LayerModel, grads: list[np.ndarray], norms: list[np.ndarray], plan: _Plan
) -> Mapping[int, float]:
    """In-place sharp-operator updates on the plan's rows, once per group; returns the
    stepsizes, in layer order, as a read-only mapping (the plan's own, on a table without L1).

    The Euclidean sharp operator is the identity, so a Euclidean group moves
    by ``gamma * grad`` directly; ``_dual_norms`` has already checked those
    gradients.  Spectral groups take ``geometry.sharps``.  A plan with L0 and
    L1 computes 1 / (L0 + L1 * dn) for each group's rows; a denominator that
    is not positive raises for the lowest such layer, before anything moves.
    """
    if plan.applied is not None:
        gammas = [st.gammas for st in plan.groups]
        applied = plan.applied
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
        applied = MappingProxyType(dict(sorted(zip(layers, values))))
    for st, gamma in zip(plan.groups, gammas):
        step = grads[st.index][st.rows]
        if st.kind != NormKind.EUCLIDEAN:
            step = geometry.sharps(st.kind, step)
        model.stacks[st.index][st.rows] -= gamma * step
    return applied


def _samples(grads: list[np.ndarray], plan: _Plan, rng: np.random.Generator) -> list[np.ndarray]:
    """The stochastic gradient sample of each planned group's rows: its exact gradient
    rows plus, on each noisy row, that layer's ``problems.stoch_grad`` noise.

    Every noisy layer, active or not, draws ``standard_normal`` of its shape,
    in layer order; a frozen layer's draw is discarded.  A group with a noisy
    row is copied; the others are views of ``grads``.
    """
    out = [grads[st.index][st.rows] for st in plan.groups]
    for g in {place[0] for *_, place in plan.noise if place is not None}:
        out[g] = out[g].copy()
    for shape, scale, place in plan.noise:
        z = rng.standard_normal(shape)
        if place is not None:
            out[place[0]][place[1]] += scale * z
    return out


def _stoch_step(
    model: LayerModel,
    samples: list[np.ndarray],
    momentum: list[np.ndarray],
    beta: float,
    plan: _Plan,
    ns_config: geometry.NewtonSchulzConfig | None,
) -> Mapping[int, float]:
    """One momentum + LMO step on the plan's active rows, once per layer group, in place;
    returns the radii of the layers that moved, in layer order, as a read-only mapping.

    For i not active, M_i and X_i are untouched (bit-identical).  Each
    group's active rows refresh their rows of ``momentum`` (one stack per
    layer group) with weight ``beta`` on ``samples`` (one stack of
    stochastic gradient samples per planned group) and move by the radius-t_i
    LMO step, of primal norm exactly t_i on the SVD backend;
    ``ns_config`` switches spectral groups to the Newton-Schulz
    orthogonalization.  A zero refreshed momentum leaves its layer in place
    and out of the returned radii (its report counts it ``degenerate``).  A
    non-finite momentum, or a step that vanishes for a non-zero momentum (its
    norm overflows), raises ValueError naming the lowest such layer.  ``run``,
    the only step entry, calls it.
    """
    applied, failed = {}, False
    for st, sample in zip(plan.groups, samples):
        x, m, rows = model.stacks[st.index], momentum[st.index], st.rows
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
            if not flag:
                applied[i] = t_i
    if failed:
        _raise_momentum_fault(model, momentum, plan, ns_config)
    return MappingProxyType(dict(sorted(applied.items())))


def _at_iteration(k: int, exc: KeyError | ValueError) -> KeyError | ValueError:
    """``exc``'s type with ``iteration k:`` before its message (a KeyError's unquoted)."""
    return type(exc)(f"iteration {k}: {exc.args[0] if isinstance(exc, KeyError) else exc}")


def _draw(scheme, k: int, iterations: int, seed: int) -> tuple[np.random.Generator, frozenset[int]]:
    """Iteration k's stream, ``stream(seed, k + 1)``, and the active set drawn first from it.

    An ``EpochShiftRpt`` scheme is rematerialized at progress k / K.  A fault
    is named ``iteration k:``.
    """
    rng = sampling.stream(seed, k + 1)
    try:
        if isinstance(scheme, sampling.EpochShiftRpt):
            scheme = scheme.at(k / iterations)
        return rng, sampling.sample(scheme, rng)
    except (KeyError, ValueError) as exc:
        raise _at_iteration(k, exc) from exc


def _read_only(layout: problems.Layout, stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-layer read-only views of ``stacks``."""
    views = [s.view() for s in stacks]
    for view in views:
        view.flags.writeable = False
    return layout.rows(views)


def uses_seed(
    scheme: sampling.SamplingScheme | sampling.EpochShiftRpt,
    policy: StepPolicy,
    noise: problems.NoiseSpec | None,
) -> bool:
    """Whether ``run`` draws from ``sampling.stream``, so that its result can depend on the seed.

    False exactly for a ``FullNetwork`` scheme under ``SmoothInverse``, whose
    step never reads ``noise``, or under a radius policy with no noise or
    all-zero sigmas, whose M0 and samples are then the exact gradient.  Any
    other scheme counts as drawing, even one whose draws are all certain.
    """
    if not isinstance(scheme, sampling.FullNetwork):
        return True
    return not isinstance(policy, SmoothInverse) and noise is not None and any(noise.sigmas)


def run(
    problem,
    scheme: sampling.SamplingScheme | sampling.EpochShiftRpt,
    policy: StepPolicy,
    iterations: int,
    seed: int,
    *,
    norms: Sequence[NormKind] | None = None,
    x0: Sequence[np.ndarray] | None = None,
    noise: problems.NoiseSpec | None = None,
    on_step: Callable[[StepView], None] | None = None,
) -> RunResult:
    """Drive the optimizer for ``iterations`` steps; deterministic given the seed.

    The seed enters only through ``sampling.stream``; where ``uses_seed`` is
    False nothing is drawn from it, and every seed gives the same result.
    Stream-splitting rule: stream(seed, 0) feeds initialization draws (e.g.
    the momentum-initializing stochastic gradient), stream(seed, k + 1) feeds
    iteration k, which consumes first the active-set draw, then the gradient
    noise.  Replaying any iteration therefore needs only (seed, k).  The
    active-set draw is made one iteration ahead: S_0 from stream(seed, 1)
    after M0's draw and before the loop, S_{k+1} from stream(seed, k + 2) at
    the end of iteration k, just before the pass at x_{k+1}; that generator
    is carried into iteration k + 1 for its noise.  The last iteration draws
    nothing, and K = 0 never opens stream(seed, 1).  The numbers drawn, and
    their order within each stream, are those of a draw at the top of each
    iteration.  A run still makes one ``sampling.stream(seed, k + 1)`` call
    per iteration, K in all, which the benchmark tracer
    (``benchmarks/tracer.py``) counts as the start of iteration k.  The
    call comes before the pass at x_k, so for 0 < k < K that pass falls
    inside iteration k's traced span, not iteration k - 1's: iteration 0's
    span holds no pass and iteration K - 1's holds the passes at x_{K-1}
    and x_K.

    The problem is evaluated once per iterate (K + 1 passes), through its
    ``stacked_oracle(model.layout)``; a problem without one raises
    AttributeError before x0 is evaluated.  Each pass starts its forward at
    min S of the step before it (layer 1 at x0) and runs its backward to
    layer 1, except the pass at x_K, which computes f only when ``on_step``
    is None.  Each stochastic sample, M0 included, is that exact gradient
    plus noise on the sampled rows.
    ``on_step`` is called after each iteration with a ``StepView``: read-only
    views of the layers, the momentum and the gradients, so that a hook
    cannot change the run (a prefix-reusing pass relies on frozen layers
    staying as stepped).

    An ``EpochShiftRpt`` scheme is rematerialized for iteration k's draw at
    progress k / K, and a ``HorizonSchedule`` once, as the ``FixedRadius``
    its ``at(b, K)`` returns.  A rule carries its own inputs: the smoothness
    table of ``SmoothInverse``, refused before x0's pass when it is sized for
    another network, and the Newton-Schulz config of ``FixedRadius``.

    Reports carry f before and after each step and the exact gradients'
    per-layer dual norms as diagnostics (the stochastic path's *updates* see
    only the noisy sample); momentum errors are not computed here.  Each
    report is built once, read-only, and is the same object ``on_step`` saw.
    A failed step -- a missing smoothness constant, a non-finite gradient,
    momentum or f, a vanished LMO step -- raises with ``iteration k:`` and the
    layer in the message; a fault in the look-ahead draw of S_{k+1} names
    ``iteration k + 1``.
    """
    b = problem.b
    if scheme.b != b:
        raise ValueError("scheme and problem disagree on layer count")
    norms = list(norms) if norms is not None else [NormKind.EUCLIDEAN] * b
    model = LayerModel(list(x0) if x0 is not None else [np.zeros(s) for s in problem.shapes], norms)

    deterministic = isinstance(policy, SmoothInverse)
    if deterministic and policy.table.b != b:
        raise ValueError(f"the smoothness table has {policy.table.b} layers, the problem has {b}")

    oracle = problem.stacked_oracle(model.layout)
    f_curr, grads, _ = oracle(model.stacks, 1, 1)
    if not math.isfinite(f_curr):
        raise ValueError(f"f is {f_curr} at x0")
    f_initial = f_curr

    plans: dict[frozenset[int], _Plan] = {}  # one per distinct active set, built on its first draw
    momentum = radii = sigmas = None  # momentum: one stack per layer group
    if isinstance(policy, HorizonSchedule):
        policy = policy.at(b, iterations)
    if not deterministic:
        if len(policy.radii) != b:
            raise ValueError("need one radius per layer")
        radii, beta = np.asarray(policy.radii), policy.beta
        if noise is not None:
            sigmas = noise.sigmas
            if len(sigmas) != b:
                raise ValueError("need one sigma per layer")
        full = frozenset(range(1, b + 1))
        plans[full] = _plan(model, full, radii, sigmas)
        m0 = _samples(grads, plans[full], sampling.stream(seed, INIT_STREAM))
        momentum = [np.array(m, dtype=float) for m in m0]  # copied: M0 shares no row with grads

    if iterations:
        rng, active = _draw(scheme, 0, iterations, seed)
    reports: list[StepReport] = []
    for k in range(iterations):
        try:
            norms_map, group_norms = _dual_norms(model, grads)
            plan = plans.get(active)
            if plan is None:
                plan = _plan(model, active, radii, sigmas)
                if deterministic:
                    _plan_stepsizes(plan, policy.table, norms_map)
                plans[active] = plan
            if deterministic:
                applied = _det_step(model, grads, group_norms, plan)
            else:
                samples = _samples(grads, plan, rng)
                applied = _stoch_step(model, samples, momentum, beta, plan, policy.ns)
        except (KeyError, ValueError) as exc:
            raise _at_iteration(k, exc) from exc
        # the pass at x_K computes f only when no hook reads its gradients
        backward_to = 1 if k + 1 < iterations or on_step is not None else b + 1
        if k + 1 < iterations:  # look ahead: S_{k+1} and the generator of its noise
            rng, active = _draw(scheme, k + 1, iterations, seed)
        try:
            f_after, grads, fwd_macs = oracle(model.stacks, min(plan.active), backward_to)
            if not math.isfinite(f_after):
                raise ValueError(f"f_after is {f_after} after updating layers {sorted(plan.active)}")
        except (KeyError, ValueError) as exc:
            raise _at_iteration(k, exc) from exc
        report = StepReport(plan.active, f_curr, f_after, norms_map, applied, k, fwd_macs)
        f_curr = f_after
        if on_step is not None:
            on_step(StepView(
                report, _read_only(model.layout, model.stacks),
                None if momentum is None else _read_only(model.layout, momentum),
                _read_only(model.layout, grads),
            ))
        reports.append(report)

    return RunResult(model, reports, f_curr, f_initial)
