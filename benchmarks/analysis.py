"""Per-layer metrics and cost-model calibration from a traced run.

Self time is a span's duration minus the durations of its direct children
(children run on the parent's thread, one after another, so they never
overlap).  Sums of self time across threads can exceed wall time, because
threads that wait for the interpreter lock still have open spans.

Calibration fits ``costmodel.CostParams`` to measured seconds per
iteration.  Under ``full_network`` and RPT, every active set is a suffix
``{s..b}``, so an iteration costs ``c_ov + sum_{i>=s} (c_i + c_sharp_i)``:

* ``c_sharp_i`` is measured directly: the mean duration of the update call
  (``geometry.lmo`` on the momentum path, ``geometry.sharp`` on the
  deterministic path) that the optimizer makes for layer i.  It updates the
  active layers in ascending order, so the j-th update call of an iteration
  belongs to layer ``min S + j``.
* ``c_i`` comes from a non-negative least-squares fit of the remaining
  seconds (iteration minus its update calls) on the indicators ``i >= s``.
* ``c_ov`` and ``c_b`` cannot be told apart (layer b is in every active set);
  the fit reports their sum as ``c_ov`` and sets ``c_b`` to the floor.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

FLOOR = 1e-12  # CostParams needs c_i > 0; fitted zeros are raised to this
SCHEME_VARIANT = {"FullNetwork": "full", "Rpt": "rpt"}
UPDATE_CALLS = ("geometry.lmo", "geometry.sharp")


class Trace:
    """Spans and iterations of one traced run, with derived self times."""

    def __init__(self, data: dict) -> None:
        self.spans = data["spans"]
        self.iterations = data["iterations"]  # spans index into this list
        self.child_s = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[2] is not None:
                self.child_s[sp[2]] += sp[6] - sp[5]

    def dur(self, sp) -> float:
        return sp[6] - sp[5]

    def self_s(self, sp) -> float:
        return sp[6] - sp[5] - self.child_s[sp[0]]

    def named(self, name: str) -> list:
        return [sp for sp in self.spans if sp[1] == name]

    def outer(self, name: str) -> list:
        """Spans of ``name`` not nested directly in a span of the same name."""
        return [
            sp for sp in self.named(name)
            if sp[2] is None or self.spans[sp[2]][1] != name
        ]

    def nesting_violations(self, tol: float = 1e-9) -> int:
        bad = 0
        for sp in self.spans:
            if sp[6] is None:
                bad += 1
                continue
            if sp[2] is None:
                continue
            parent = self.spans[sp[2]]
            if sp[5] < parent[5] - tol or sp[6] > parent[6] + tol or sp[3] != parent[3]:
                bad += 1
        return bad


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _max_concurrent(intervals) -> int:
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    best = cur = 0
    for _, d in events:
        cur += d
        best = max(best, cur)
    return best


def mlp_pass_macs(layer_sizes: list[int], n_samples: int, first_layer: int) -> int:
    """MACs of a forward pass plus a backward pass that stops at ``first_layer``.

    Mirrors ``TinyMlp._value_and_grad_from``: every layer l >= first_layer
    forms its gradient (out_l x in_l x n MACs) and every layer l > first_layer
    also propagates the error back through W_l (the same count again).
    """
    per_layer = [layer_sizes[l + 1] * layer_sizes[l] * n_samples for l in range(len(layer_sizes) - 1)]
    forward = sum(per_layer)
    grads = sum(per_layer[first_layer - 1 :])
    propagate = sum(per_layer[first_layer:])
    return forward + grads + propagate


def layer_metrics(trace: Trace, cfg: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (without the pooled iteration times)."""
    n_iter = sum(1 for it in trace.iterations if it[4] is not None)
    out: dict[str, float] = {}
    for name in ("geometry.lmo", "geometry.dual_norm", "geometry.sharp"):
        out[f"{name}.calls"] = len(trace.outer(name))
    for name in (
        "geometry.lmo", "geometry.dual_norm", "geometry.sharp",
        "problems.value_and_grad", "problems.stoch_grad", "problems.forward_with_cache",
        "optimizer.run", "optimizer.stoch_step", "sampling.stream", "sampling.sample",
    ):
        out[f"{name}.self_s"] = sum(trace.self_s(sp) for sp in trace.named(name))
    out["problems.value_and_grad.calls"] = len(trace.outer("problems.value_and_grad"))

    svd_in_geometry = [
        sp for sp in trace.named("numpy.linalg.svd")
        if sp[2] is not None and trace.spans[sp[2]][1].startswith("geometry.")
    ]
    out["geometry.svd_per_iter"] = len(svd_in_geometry) / n_iter

    # first layer of each gradient pass made inside an iteration
    passes = [1 for sp in trace.outer("problems.value_and_grad") if sp[4] >= 0]
    passes += [sp[7] for sp in trace.named("problems.truncated_grad") if sp[4] >= 0]
    out["problems.grad_passes_per_iter"] = len(passes) / n_iter
    macs = 0
    if cfg["problem"]["kind"] == "tiny_mlp":
        sizes, n = cfg["problem"]["layer_sizes"], cfg["problem"]["n_samples"]
        macs = sum(mlp_pass_macs(sizes, n, first) for first in passes)
    out["problems.grad_macs_per_iter"] = macs / n_iter

    runs = trace.named("optimizer.run")
    out["optimizer.run.mean_s"] = sum(trace.dur(sp) for sp in runs) / len(runs)
    run_intervals = [(sp[5], sp[6]) for sp in runs]
    main = trace.outer("cli.main")[0]
    out["cli.self_s"] = trace.dur(main) - _union_length(run_intervals)
    out["cli.workers"] = _max_concurrent(run_intervals)
    return out


def iteration_table(trace: Trace):
    """Per iteration: (variant, seconds, min S, {layer: update seconds})."""
    run_variant = {sp[0]: SCHEME_VARIANT.get(sp[7], sp[7]) for sp in trace.named("optimizer.run")}
    updates = defaultdict(list)
    for sp in trace.spans:
        if sp[1] in UPDATE_CALLS and sp[4] >= 0:
            parent = trace.spans[sp[2]][1]
            if parent in ("optimizer.run", "optimizer.stoch_step"):
                updates[sp[4]].append(trace.dur(sp))
    rows = []
    for idx, it in enumerate(trace.iterations):
        if it[4] is None:
            continue
        s = it[5]
        per_layer = {s + j: d for j, d in enumerate(updates.get(idx, []))}
        rows.append((run_variant[it[0]], it[4] - it[3], s, per_layer))
    return rows


def calibrate(rows, cfg: dict) -> dict:
    """Fit CostParams to measured iteration seconds; compare model and measurement."""
    from scipy.optimize import nnls

    from droptrain import costmodel, sampling

    b = sampling.scheme_from_dict(cfg["variants"][0]["scheme"]).b
    sharp_sum, sharp_n = np.zeros(b), np.zeros(b)
    for _, _, _, upd in rows:
        for i, d in upd.items():
            sharp_sum[i - 1] += d
            sharp_n[i - 1] += 1
    c_sharp = np.where(sharp_n > 0, sharp_sum / np.maximum(sharp_n, 1), 0.0)

    # remaining seconds ~ c_ov' + sum_{i=s}^{b-1} c_i, with c_ov' = c_ov + c_b
    x = np.array([[1.0] + [1.0 if i >= s else 0.0 for i in range(1, b)] for _, _, s, _ in rows])
    y = np.array([t - sum(upd.values()) for _, t, _, upd in rows])
    coef, _ = nnls(x, y)
    c = [max(v, FLOOR) for v in coef[1:]] + [FLOOR]
    params = costmodel.CostParams(float(coef[0]), tuple(c), tuple(float(v) for v in c_sharp))

    cutoffs = {s for _, _, s, _ in rows}
    unidentified = [
        "c_ov and c_b: layer b is in every active set, so only their sum is identified "
        "(reported as c_ov, with c_b at the floor)",
        "c_i and c_sharp_i: iteration seconds alone only identify c_i + c_sharp_i for i >= min S; "
        "c_sharp_i is taken from the measured lmo/sharp calls of layer i",
    ]
    unidentified += [f"c_{s - 1}: cutoff {s} never drawn" for s in range(2, b + 1) if s not in cutoffs]
    at_zero = [
        f"c_{i}: starting the iteration at layer {i + 1} instead of {i} saves no measurable time"
        for i in range(1, b) if coef[i] <= 0.0 and i + 1 in cutoffs
    ]

    by_variant = defaultdict(lambda: defaultdict(list))  # variant -> min S -> seconds
    for name, t, s, _ in rows:
        by_variant[name][s].append(t)
    variants = {}
    for v in cfg["variants"]:
        by_cutoff = by_variant[v["name"]]
        measured = float(np.mean([t for ts in by_cutoff.values() for t in ts]))
        predicted = costmodel.expected_iteration_cost(sampling.scheme_from_dict(v["scheme"]), params)
        variants[v["name"]] = {
            "iterations": sum(len(ts) for ts in by_cutoff.values()),
            "measured_s": measured,
            "predicted_s": predicted,
            "rel_err": abs(predicted - measured) / measured,
            "by_cutoff": {s: (1e3 * float(np.mean(ts)), len(ts)) for s, ts in by_cutoff.items()},
        }
    return {
        "params": params.to_dict(),
        "unidentified": unidentified,
        "at_zero": at_zero,
        "variants": variants,
        "saving_measured": variants["rpt"]["measured_s"] / variants["full"]["measured_s"],
        "saving_modelled": variants["rpt"]["predicted_s"] / variants["full"]["predicted_s"],
        "calib_rel_err": max(v["rel_err"] for v in variants.values()),
    }
