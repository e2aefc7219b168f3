"""Command-line entry point: experiment runs, solvers, and verification suites.

Subcommands
-----------
run            drive optimizer variants from a JSON config; emits one CSV per
               (variant, seed) plus a JSON summary with a time-to-target table
optimal-probs  optimal sampling probabilities for a smoothness table
verify         execute a named property/oracle suite; exit 0 iff all pass
marginals      analytic vs empirical subset marginals for a scheme
cost           total-cost breakdown for a scheme/table/cost-params triple

Configuration is a single JSON document (no environment variables); primary
outputs are byte-identical across re-runs with identical inputs -- wall-clock
metadata is quarantined to the summary's ``metadata`` block.

``run`` compiles the config once into a ``RunPlan`` (``compile_plan``), which
builds every scheme, policy, smoothness table, x0 and cost once, and then runs
each (variant, seed) on it; a variant that draws nothing from the seed's
streams (``optimizer.uses_seed``) runs once, and its seeds share its CSV
bytes.

Each config block is read once, by the one set of readers in ``sampling``'s
parsing section, which ``costmodel`` and the constructors share: a type,
length or shape fault raises ``ConfigError`` (``sampling.ConfigError``)
naming the field path, as in ``config.iterations: expected an integer >= 0,
got 2.5``.  A value's range is checked once, by the constructor that owns
it (``NoiseSpec``, ``FixedRadius`` and its ``horizon`` schedule, the
quadratics, ``TinyMlp``, ``CostParams``, ``SmoothnessTable.from_dict``),
which is given the block's path and names the entry: ``noise.sigmas[1]: must
be finite and >= 0, got -1.0``.  A scheme's faults keep the scheme
document's own names under the variant's path: ``config.variants[1].scheme:
scheme.p: missing required field``.  ``run``'s exit codes:

0  all runs finished and their outputs are written;
2  a config fault: one ``config error: <field path>: ...`` line on stderr,
   reported before any output, so no output directory is made; an output
   directory that is empty or cannot be made is named as ``--out`` or
   ``config.out``;
1  a run failed: one ``run error: variant ..., seed ...: iteration k: ...``
   line naming the variant, the seed, the iteration and the layer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import costmodel, geometry, optimizer, problems, sampling
from .costmodel import CostParams, SmoothnessTable
from .geometry import NormKind
from .sampling import ConfigError, _json_field, _json_finite, _json_int, _json_list
from .sampling import _json_matrix, _json_object

SCHEMA_VERSION = 1

# the names of verify.SUITES, sorted; verify is imported only by the commands that use it
SUITES = ["cost", "descent", "geometry", "rates", "sampling", "stochastic"]

CSV_COLUMNS_BASE = ["k", "f_before", "f_after", "fgap_after", "grad_sq_weighted"]
CSV_COLUMNS_TAIL = ["active_min", "cost_units", "cum_units", "measured_fwd_macs"]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _shapes(spec: dict, path: str) -> list[tuple[int, int]]:
    shapes = _json_list(_json_field(spec, "shapes", path), f"{path}.shapes")
    if not shapes:
        raise ConfigError(f"{path}.shapes", "must be non-empty")
    return [
        tuple(_json_int(d, f"{path}.shapes[{j}][{k}]", 1)
              for k, d in enumerate(_json_list(s, f"{path}.shapes[{j}]", 2)))
        for j, s in enumerate(shapes)
    ]


def _separable_targets(spec, path: str, shapes) -> list[np.ndarray]:
    if spec == "zeros":
        return [np.zeros(s) for s in shapes]
    if isinstance(spec, dict):
        trng = np.random.default_rng(_json_int(_json_field(spec, "seed", path), f"{path}.seed", 0))
        return [trng.standard_normal(s) for s in shapes]
    if not isinstance(spec, list):
        raise ConfigError(path, 'expected "zeros", {"seed": n} or a list of matrices, '
                                f"got {spec!r}")
    _json_list(spec, path, len(shapes))
    return [_json_matrix(t, f"{path}[{j}]", s) for j, (t, s) in enumerate(zip(spec, shapes))]


def build_problem(spec: dict, path: str = "problem"):
    kind = _json_field(spec, "kind", path)
    if kind == "separable_quadratic":
        shapes = _shapes(spec, path)
        curvatures = _json_field(spec, "curvatures", path)
        targets = _separable_targets(spec.get("targets", "zeros"), f"{path}.targets", shapes)
        return problems.SeparableQuadratic(targets, curvatures, path)
    if kind == "coupled_quadratic":
        shapes = _shapes(spec, path)
        curvatures = _json_field(spec, "curvatures", path)
        coupling = _json_finite(_json_field(spec, "coupling", path), f"{path}.coupling")
        map_seed = _json_int(spec.get("map_seed", 0), f"{path}.map_seed", 0)
        return problems.CoupledQuadratic(
            [np.zeros(s) for s in shapes], curvatures, coupling,
            rng=np.random.default_rng(map_seed), path=path,
        )
    if kind == "tiny_mlp":
        layer_sizes = _json_list(_json_field(spec, "layer_sizes", path), f"{path}.layer_sizes")
        if len(layer_sizes) < 2:
            raise ConfigError(f"{path}.layer_sizes", "need at least 2 sizes (input and output), "
                              f"got {len(layer_sizes)}")
        for j, n in enumerate(layer_sizes):
            _json_int(n, f"{path}.layer_sizes[{j}]", 1)
        return problems.TinyMlp.synthetic(
            layer_sizes, activation=spec.get("activation", "tanh"),
            n_samples=_json_int(spec.get("n_samples", 64), f"{path}.n_samples", 1),
            n_clusters=_json_int(spec.get("n_clusters", 3), f"{path}.n_clusters", 1),
            seed=_json_int(spec.get("seed", 0), f"{path}.seed", 0), path=path,
        )
    raise ConfigError(f"{path}.kind", f"unknown problem kind {kind!r}")


def build_norms(spec, b: int, path: str = "norms") -> list[NormKind]:
    if spec is None:
        return [NormKind.EUCLIDEAN] * b
    if isinstance(spec, str):
        try:
            return [NormKind(spec)] * b
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if isinstance(spec, list):
        norms = []
        for j, s in enumerate(_json_list(spec, path, b)):
            try:
                norms.append(NormKind(s))
            except ValueError as exc:
                raise ConfigError(f"{path}[{j}]", str(exc)) from exc
        return norms
    raise ConfigError(path, "expected a norm name or a list of norm names")


def build_policy(spec: dict, problem, scheme, norms: list[NormKind], iterations: int, path: str):
    """The step rule of ``spec``; a smoothness-inverse rule carries the problem's table, a
    horizon rule is the ``FixedRadius`` of its schedule at K = ``iterations``."""
    kind = _json_field(spec, "kind", path)
    b = problem.b
    if kind == "smooth_inverse":
        try:
            return optimizer.SmoothInverse(problems.smoothness_constants(problem, scheme, norms))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind == "fixed_radius":
        radii = _json_list(_json_field(spec, "radii", path), f"{path}.radii", b)
        return optimizer.FixedRadius(tuple(radii), spec.get("beta", 0.9), path)
    if kind == "horizon":
        eta = spec.get("eta")
        if eta is not None:
            eta = tuple(_json_list(eta, f"{path}.eta", b))
        return optimizer.FixedRadius.horizon(b, iterations, eta, path)
    raise ConfigError(f"{path}.kind", f"unknown policy kind {kind!r}")


def build_x0(spec, problem, path: str = "x0") -> list[np.ndarray]:
    spec = _json_object({} if spec is None else spec, path)
    kind = spec.get("kind", "zeros")
    if kind == "zeros":
        return [np.zeros(s) for s in problem.shapes]
    if kind == "random":
        rng = np.random.default_rng(_json_int(spec.get("seed", 0), f"{path}.seed", 0))
        scale = _json_finite(spec.get("scale", 1.0), f"{path}.scale")
        quadratic = isinstance(problem, (problems.SeparableQuadratic, problems.CoupledQuadratic))
        out = []
        for i, s in enumerate(problem.shapes):
            center = problem.targets[i] if quadratic else np.zeros(s)
            out.append(center + scale * rng.standard_normal(s))
        return out
    if kind == "arrays":
        values = _json_list(_json_field(spec, "values", path), f"{path}.values", problem.b)
        return [
            _json_matrix(v, f"{path}.values[{j}]", shape)
            for j, (v, shape) in enumerate(zip(values, problem.shapes))
        ]
    raise ConfigError(f"{path}.kind", f"unknown x0 kind {kind!r}")


def load_config(config_path: str) -> dict:
    """The config's JSON object; ``compile_plan`` checks its contents."""
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"cannot read {config_path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    return cfg


@dataclasses.dataclass(frozen=True)
class VariantPlan:
    """One variant's scheme and policy, and what its seeds share."""

    name: str
    scheme: sampling.SamplingScheme | sampling.EpochShiftRpt
    policy: optimizer.StepPolicy
    weights: np.ndarray                   # rate weights of the CSV's grad_sq_weighted
    eta_squared_caps: list[float] | None  # horizon policy with a loaded smoothness table


@dataclasses.dataclass(frozen=True)
class RunPlan:
    """A checked ``run`` config; a (variant, seed) run is ``optimizer.run`` on it."""

    problem: object
    norms: list[NormKind]
    noise: problems.NoiseSpec | None
    x0: list[np.ndarray]
    cost: CostParams | None
    iterations: int
    seeds: list[int]
    targets: list[float]
    variants: list[VariantPlan]


def _plan_variant(spec, path, problem, norms, iterations, caps_table, names) -> VariantPlan:
    """Check one variant against the names taken and build what its seeds share."""
    name = _json_field(spec, "name", path)
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"{path}.name", f"{name!r} is not a file name stem")
    if name in names:
        raise ConfigError(f"{path}.name", f"duplicate variant name {name!r}")
    scheme_spec = _json_field(spec, "scheme", path)
    try:
        scheme = sampling.scheme_from_dict(scheme_spec)
    except ValueError as exc:  # scheme-document paths and constructor faults, under this path
        raise ConfigError(f"{path}.scheme", str(exc)) from exc
    b = problem.b
    if scheme.b != b:
        raise ConfigError(f"{path}.scheme", f"scheme has {scheme.b} layers, the problem has {b}")
    policy_spec = spec.get("policy", {"kind": "smooth_inverse"})
    policy = build_policy(policy_spec, problem, scheme, norms, iterations, f"{path}.policy")

    weights, caps = np.ones(b), None
    if isinstance(policy, optimizer.SmoothInverse):
        try:
            tw = costmodel.theory_weights(costmodel.cutoff_probs(scheme), policy.table, "smooth")
            weights = tw.w / tw.mean
        except (ValueError, KeyError):
            pass  # no RPT rate weights for this scheme: the CSV weighs layers equally
    if policy_spec["kind"] == "horizon" and caps_table is not None and caps_table.l1 is not None:
        try:
            p = costmodel.cutoff_probs(scheme)
        except ValueError:
            p = None  # no cutoff distribution, no caps
        if p is not None:
            rho = [math.sqrt(geometry.norm_ratio_squared(*ks)) for ks in zip(norms, problem.shapes)]
            try:
                caps = costmodel.horizon_eta_caps(p, caps_table, iterations, rho).tolist()
            except (KeyError, ValueError) as exc:
                raise ConfigError("config.smoothness_table", exc.args[0]) from exc
    return VariantPlan(name, scheme, policy, weights, caps)


def compile_plan(cfg: dict, seed: int | None = None) -> RunPlan:
    """Check ``cfg`` and build every object a run needs once, before any output.

    ``seed`` (the ``--seed`` flag) replaces the config's seeds.  Raises
    ConfigError naming the field path of the first fault; any other
    ValueError raised while building the problem is named ``problem``.
    """
    try:
        problem = build_problem(_json_field(cfg, "problem", "config"))
    except ConfigError:
        raise
    except ValueError as exc:  # numpy refuses a size the readers pass, such as 10**400
        raise ConfigError("problem", str(exc)) from exc
    b = problem.b
    norms = build_norms(cfg.get("norms"), b)
    noise = None
    if cfg.get("noise") is not None:
        sigmas = _json_list(_json_field(cfg["noise"], "sigmas", "noise"), "noise.sigmas", b)
        noise = problems.NoiseSpec(tuple(sigmas), "noise")
    x0 = build_x0(cfg.get("x0"), problem)
    cost = None if cfg.get("cost") is None else CostParams.from_dict(cfg["cost"], b)
    iterations = _json_int(_json_field(cfg, "iterations", "config"), "config.iterations", 0)
    seeds = _json_list(_json_field(cfg, "seeds", "config"), "config.seeds")
    if not seeds:
        raise ConfigError("config.seeds", "must be non-empty")
    for j, s in enumerate(seeds):
        _json_int(s, f"config.seeds[{j}]", 0)
        if s in seeds[:j]:
            raise ConfigError(f"config.seeds[{j}]", f"duplicate seed {s}")
    if seed is not None:
        seeds = [_json_int(seed, "--seed", 0)]
    targets = []
    for j, t in enumerate(_json_list(cfg.get("targets", []), "config.targets")):
        t = _json_finite(t, f"config.targets[{j}]")
        if t in targets:
            raise ConfigError(f"config.targets[{j}]", f"duplicate target {t}")
        targets.append(t)
    if not isinstance(cfg.get("out", ""), str):
        raise ConfigError("config.out", f"expected a string, got {cfg['out']!r}")

    caps_table = None
    if "smoothness_table" in cfg:
        try:
            caps_table = _load_table(cfg["smoothness_table"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                "config.smoothness_table", f"cannot load {cfg['smoothness_table']}: {exc}"
            ) from exc
        if caps_table.b != b:
            raise ConfigError(
                "config.smoothness_table", f"table has {caps_table.b} layers, the problem has {b}"
            )
    variant_specs = _json_list(_json_field(cfg, "variants", "config"), "config.variants")
    if not variant_specs:
        raise ConfigError("config.variants", "must be non-empty")
    variants = []
    for j, spec in enumerate(variant_specs):
        variants.append(_plan_variant(
            spec, f"config.variants[{j}]", problem, norms, iterations, caps_table,
            {v.name for v in variants},
        ))
    if caps_table is not None and all(v.eta_squared_caps is None for v in variants):
        raise ConfigError("config.smoothness_table", (
            "no variant reads it: eta^2 caps need an L1 map and a horizon variant over an "
            "rpt or full_network scheme"
        ))
    return RunPlan(problem, norms, noise, x0, cost, iterations, seeds, targets, variants)


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_rows(result, weights, problem, cost) -> tuple[list[list], float | None]:
    """The CSV rows, whose ``cum_units`` sum ``iteration_cost`` over the active sets, and that sum.

    Without ``cost`` the cost cells and the sum are None.  Each distinct
    active set is priced once.
    """
    rows = []
    cum = None if cost is None else 0.0
    prices: dict[frozenset[int], float] = {}
    for r in result.reports:
        units = None
        if cost is not None:
            units = prices.get(r.active)
            if units is None:
                units = prices[r.active] = costmodel.iteration_cost(r.active, cost)
            cum += units
        gsq = sum(
            weights[i - 1] * r.grad_dual_norms[i] ** 2 for i in range(1, problem.b + 1)
        )
        row = [r.k, r.f_before, r.f_after, r.f_after - problem.f_star, gsq]
        row += [r.grad_dual_norms[i] for i in range(1, problem.b + 1)]
        row += [min(r.active), units, cum, r.fwd_macs]
        rows.append(row)
    return rows, cum


def _time_to_target(rows, thresholds):
    """First row meeting each f-gap threshold; interpolation-free by design."""
    out = {}
    for thr in thresholds:
        hit = None
        for row in rows:
            if row[3] <= thr:
                hit = {"k": row[0], "cum_units": row[-2]}
                break
        out[str(thr)] = hit
    return out


def _run_one(plan: RunPlan, variant: VariantPlan, seed: int, columns) -> tuple[str, dict]:
    """One (variant, seed) run: its CSV text and its summary entry, without ``csv``."""
    problem = plan.problem
    # the run's finiteness guard reports an overflow itself;
    # numpy's floating-point warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        result = optimizer.run(
            problem, variant.scheme, variant.policy, plan.iterations, seed,
            norms=plan.norms, x0=plan.x0, noise=plan.noise,
        )
        rows, cumulative_cost = _csv_rows(result, variant.weights, problem, plan.cost)
    lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
    entry = {
        "initial_f": result.f_initial,
        "final_f": result.f_final,
        "final_fgap": result.f_final - problem.f_star,
        "cumulative_cost": cumulative_cost,
        "time_to_target": _time_to_target(rows, plan.targets),
    }
    return "\n".join(lines) + "\n", entry


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        plan = compile_plan(cfg, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    problem = plan.problem
    where, out = "--out", args.out
    if out is None:
        where, out = "config.out", cfg.get("out", "results")
    if not out:  # Path("") is the working directory
        print(f"config error: {where}: must name a directory, got ''", file=sys.stderr)
        return 2
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: {where}: cannot make the directory {str(out_dir)!r}: "
              f"{exc.strerror}", file=sys.stderr)
        return 2

    columns = (
        CSV_COLUMNS_BASE
        + [f"gnorm_{i}" for i in range(1, problem.b + 1)]
        + CSV_COLUMNS_TAIL
    )
    summary = {
        "schema_version": SCHEMA_VERSION,
        "csv_columns": columns,
        "config": cfg,
        "variants": {},
        "metadata": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "tool": "droptrain",
            "seed_free_variants": [],  # each ran once, and its seeds share its CSV bytes
        },
    }

    for variant in plan.variants:
        per_seed = {}
        seed_dependent = optimizer.uses_seed(variant.scheme, variant.policy, plan.noise)
        if not seed_dependent:
            summary["metadata"]["seed_free_variants"].append(variant.name)
        text = None
        # seeds run serially: threads gain nothing on this GIL-bound loop.  A
        # seed-free variant runs at its first seed only; its CSV text and
        # summary entry are written for every seed
        for seed in plan.seeds:
            if text is None or seed_dependent:
                try:
                    text, entry = _run_one(plan, variant, seed, columns)
                except (KeyError, ValueError) as exc:
                    print(f"run error: variant {variant.name!r}, seed {seed}: {exc}",
                          file=sys.stderr)
                    return 1
            csv_path = out_dir / f"{variant.name}_seed{seed}.csv"
            with csv_path.open("w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            per_seed[str(seed)] = {**entry, "csv": csv_path.name}
        summary["variants"][variant.name] = per_seed
        if variant.eta_squared_caps is not None:
            per_seed["eta_squared_caps"] = variant.eta_squared_caps

    if len(plan.variants) == 2 and plan.targets:
        a, b_ = (v.name for v in plan.variants)
        ratios = {}
        for thr in plan.targets:
            per = []
            for seed in plan.seeds:
                ta = summary["variants"][a][str(seed)]["time_to_target"][str(thr)]
                tb = summary["variants"][b_][str(seed)]["time_to_target"][str(thr)]
                if ta and tb and ta["cum_units"] and tb["cum_units"]:
                    per.append(ta["cum_units"] / tb["cum_units"])
            entry = {"per_seed": per, "direction": f"{a} / {b_}"}
            if per:
                entry["arithmetic_mean"] = float(np.mean(per))
                entry["geometric_mean"] = float(np.exp(np.mean(np.log(per))))
            ratios[str(thr)] = entry
        summary["cost_ratio"] = ratios

    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    n_csv = len(plan.variants) * len(plan.seeds)
    print(f"wrote {n_csv} CSV file(s) and summary.json to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# optimal-probs / cost commands
# ---------------------------------------------------------------------------

def _load_table(path: str) -> SmoothnessTable:
    """The table at ``path``; ValueError if its constants are not monotone over nested sets."""
    table = SmoothnessTable.from_dict(json.loads(Path(path).read_text()))
    violations = table.monotonicity_violations()
    if violations:
        raise ValueError(f"constants not monotone over nested sets: {', '.join(violations)}")
    return table


def _load_cost(path: str, b: int) -> CostParams:
    return CostParams.from_dict(json.loads(Path(path).read_text()), b)


REGIMES = {"smooth": "smooth", "l0l1-eps": "l0l1_eps", "l0l1-eps2": "l0l1_eps2"}


def cmd_optimal_probs(args) -> int:
    if args.regime == "smooth" and args.cost is not None:
        return _flag_error("--cost", "the smooth regime reads no cost params")
    if args.regime != "smooth" and not args.cost:
        return _flag_error("--cost", f"the {args.regime} regime needs a cost params file")
    try:
        table = _load_table(args.table)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"table error: {exc}", file=sys.stderr)
        return 2
    out: dict = {"regime": args.regime}
    try:
        if args.regime == "smooth":
            p = costmodel.optimal_rpt_probs_smooth(table)
            optimal = costmodel.full_network_optimal_smooth(table)
            full = table.full_network_l0()
            ties = int(np.sum(full == full.max()))
            verdict = (
                "full-network optimal" + (" (non-unique optimum)" if optimal and ties > 1 else "")
                if optimal
                else "full-network suboptimal"
            )
            out.update({"p": p.tolist(), "full_network_optimal": optimal, "verdict": verdict})
        else:
            cp = _load_cost(args.cost, table.b)
            regime = "eps" if args.regime == "l0l1-eps" else "eps2"
            sol = costmodel.optimal_rpt_probs_l0l1(table, cp, regime)
            condition = "holds" if sol.first_layer_l1_is_max else "fails"
            verdict = (
                f"full-network optimal candidate (first-layer condition {condition})"
                if not sol.vertex_beaten
                else "full-network suboptimal (strictly better distribution found)"
            )
            out.update(
                {
                    "p": sol.p.tolist(),
                    "objective": sol.value,
                    "vertex_objective": sol.vertex_value,
                    "vertex_beaten": sol.vertex_beaten,
                    "first_layer_l1_is_max": sol.first_layer_l1_is_max,
                    "verdict": verdict,
                }
            )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return _input_error(exc)
    print("p* =", " ".join(f"{x:.6f}" for x in out["p"]))
    print("verdict:", out["verdict"])
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _input_error(exc: Exception) -> int:
    """Print ``error:`` and the message of a command's input fault (a KeyError's without
    its repr quotes); return exit code 2."""
    print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
    return 2


def _flag_error(flag: str, message: str) -> int:
    print(f"error: {flag}: {message}", file=sys.stderr)
    return 2


def _bad_flag(flag: str, what: str, value) -> int:
    return _flag_error(flag, f"expected {what}, got {value!r}")


def cmd_cost(args) -> int:
    for flag, value in (("--eps", args.eps), ("--delta0", args.delta0)):
        if not (math.isfinite(value) and value > 0):
            return _bad_flag(flag, "a finite number > 0", value)
    try:
        scheme = sampling.scheme_from_dict(json.loads(Path(args.scheme).read_text()))
        if isinstance(scheme, sampling.EpochShiftRpt):
            raise ValueError("an epoch_shift scheme has no fixed cost: its cutoffs move with k / K")
        table = _load_table(args.table)
        cp = _load_cost(args.cost, table.b)
        breakdown = costmodel.total_cost(
            scheme, cp, table, args.eps, REGIMES[args.regime], delta0=args.delta0
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return _input_error(exc)
    print(json.dumps(dataclasses.asdict(breakdown), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# marginals command
# ---------------------------------------------------------------------------

def cmd_marginals(args) -> int:
    for flag, value, minimum in (("--draws", args.draws, 1), ("--seed", args.seed, 0)):
        if value < minimum:
            return _bad_flag(flag, f"an integer >= {minimum}", value)
    if args.progress is not None and not 0.0 <= args.progress <= 1.0:  # nan too
        return _bad_flag("--progress", "a number in [0, 1]", args.progress)
    try:
        scheme = sampling.scheme_from_dict(json.loads(Path(args.scheme).read_text()))
        if isinstance(scheme, sampling.EpochShiftRpt):
            scheme = scheme.at(args.progress or 0.0)
        elif args.progress is not None:
            return _flag_error("--progress", "only an epoch_shift scheme reads a training progress")
        f_ana, q_ana = sampling.marginals(scheme)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"scheme error: {exc}", file=sys.stderr)
        return 2
    from . import verify

    b = scheme.b
    f_emp, q_emp = verify.empirical_marginals(scheme, args.draws, args.seed)

    def z(emp, ana):
        var = ana * (1 - ana)
        if var == 0:
            return 0.0 if emp == ana else math.inf
        return (emp - ana) / math.sqrt(var / args.draws)

    print(f"{'layer':>5} {'F_analytic':>12} {'F_empirical':>12} {'zF':>8} "
          f"{'Q_analytic':>12} {'Q_empirical':>12} {'zQ':>8}")
    worst = 0.0
    for i in range(b):
        zf, zq = z(f_emp[i], f_ana[i]), z(q_emp[i], q_ana[i])
        worst = max(worst, abs(zf), abs(zq))
        print(f"{i + 1:>5} {f_ana[i]:>12.6f} {f_emp[i]:>12.6f} {zf:>8.2f} "
              f"{q_ana[i]:>12.6f} {q_emp[i]:>12.6f} {zq:>8.2f}")
    print(f"worst |z| = {worst:.2f} over {args.draws} draws")
    return 0


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.seed < 0:
        return _bad_flag("--seed", "an integer >= 0", args.seed)
    if args.out is not None:
        try:  # refused before any suite runs; appending leaves an existing report as it is
            open(args.out, "a").close()
        except OSError as exc:
            return _flag_error("--out", f"cannot write {args.out!r}: {exc.strerror}")
    from . import verify

    try:
        results = verify.run_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_fail = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = ", ".join(f"{k}={v}" for k, v in sorted(r.detail.items()))
        print(f"[{status}] {r.name}" + (f" ({detail})" if detail else ""))
        n_fail += not r.passed
    report = {
        "suite": args.suite,
        "passed": n_fail == 0,
        "checks": [
            {"name": r.name, "passed": r.passed,
             "detail": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                        for k, v in r.detail.items()}}
            for r in results
        ],
    }
    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True, default=float))
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droptrain",
        description="Layer-subset LMO optimizer: runs, cost solvers, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiment variants from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment JSON")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="run a single seed only")
    p_run.set_defaults(func=cmd_run)

    p_opt = sub.add_parser("optimal-probs", help="optimal sampling probabilities for a table")
    p_opt.add_argument("--table", required=True, help="smoothness table JSON")
    p_opt.add_argument("--cost", default=None, help="cost params JSON (l0l1 regimes only)")
    p_opt.add_argument("--regime", choices=sorted(REGIMES), default="smooth")
    p_opt.set_defaults(func=cmd_optimal_probs)

    p_ver = sub.add_parser("verify", help="run a property/oracle suite")
    p_ver.add_argument(
        "--suite", required=True,
        choices=SUITES + ["all"],
    )
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None, help="write a JSON report here")
    p_ver.set_defaults(func=cmd_verify)

    p_marg = sub.add_parser("marginals", help="analytic vs empirical marginals")
    p_marg.add_argument("--scheme", required=True, help="scheme JSON path")
    p_marg.add_argument("--draws", type=int, default=100_000)
    p_marg.add_argument("--seed", type=int, default=0)
    p_marg.add_argument("--progress", type=float, default=None,
                        help="training progress in [0, 1] of an epoch-shift scheme (default 0)")
    p_marg.set_defaults(func=cmd_marginals)

    p_cost = sub.add_parser("cost", help="total-cost breakdown for a scheme")
    p_cost.add_argument("--scheme", required=True)
    p_cost.add_argument("--table", required=True)
    p_cost.add_argument("--cost", required=True)
    p_cost.add_argument("--regime", choices=sorted(REGIMES), default="smooth")
    p_cost.add_argument("--eps", type=float, default=1e-3)
    p_cost.add_argument("--delta0", type=float, default=1.0)
    p_cost.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
