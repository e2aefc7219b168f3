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
each (variant, seed) on it.  Its exit codes:

0  all runs finished and their outputs are written;
2  a config fault: one ``config error: <field path>: ...`` line on stderr,
   reported before any output, so no output directory is made;
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

from . import costmodel, geometry, optimizer, problems, sampling, verify
from .costmodel import CostParams, SmoothnessTable
from .geometry import NormKind

SCHEMA_VERSION = 1

CSV_COLUMNS_BASE = ["k", "f_before", "f_after", "fgap_after", "grad_sq_weighted"]
CSV_COLUMNS_TAIL = ["active_min", "cost_units", "cum_units", "measured_fwd_macs"]


class ConfigError(ValueError):
    """Configuration problem with the offending field path in the message."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _require(cfg, path: str, key: str, kind=None):
    _expect(isinstance(cfg, dict), path, "an object", cfg)
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = cfg[key]
    if kind is not None:
        _expect(isinstance(value, kind), f"{path}.{key}", kind.__name__, value)
    return value


def _expect(ok: bool, path: str, what: str, value):
    if not ok:
        raise ConfigError(path, f"expected {what}, got {value!r}")
    return value


def _is_finite(value, kind=(int, float)) -> bool:
    """``value`` is a finite JSON number of ``kind``; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    return abs(value) <= sys.float_info.max


def _numbers(values, path: str, b: int | None = None, positive: bool = False) -> list:
    """``values`` checked as a list of numbers, of length ``b`` when given."""
    _expect(isinstance(values, list), path, "a list", values)
    if b is not None and len(values) != b:
        raise ConfigError(path, f"expected {b} entries, got {len(values)}")
    what = "a positive finite number" if positive else "a finite number"
    for j, v in enumerate(values):
        _expect(_is_finite(v) and (v > 0 or not positive), f"{path}[{j}]", what, v)
    return values


def _integer(value, path: str, minimum: int = 0) -> int:
    """``value`` checked as a JSON integer >= ``minimum``."""
    return _expect(_is_finite(value, int) and value >= minimum, path,
                   f"an integer >= {minimum}", value)


def _matrix(value, path: str, shape) -> np.ndarray:
    """``value`` checked as a finite matrix of ``shape``."""
    try:
        x = geometry.check_matrix(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc
    _expect(x.shape == tuple(shape), path, f"shape {shape}", x.shape)
    return x


def _shapes(spec: dict, path: str) -> list[tuple[int, int]]:
    shapes = _require(spec, path, "shapes", list)
    if not shapes:
        raise ConfigError(f"{path}.shapes", "must be non-empty")
    for j, s in enumerate(shapes):
        ok = isinstance(s, list) and len(s) == 2 and all(_is_finite(d, int) and d >= 1 for d in s)
        _expect(ok, f"{path}.shapes[{j}]", "a [rows, columns] pair of integers >= 1", s)
    return [tuple(s) for s in shapes]


def _separable_targets(spec, path: str, shapes) -> list[np.ndarray]:
    if spec == "zeros":
        return [np.zeros(s) for s in shapes]
    if isinstance(spec, dict):
        trng = np.random.default_rng(_integer(_require(spec, path, "seed"), f"{path}.seed"))
        return [trng.standard_normal(s) for s in shapes]
    _expect(isinstance(spec, list), path, '"zeros", {"seed": n} or a list of matrices', spec)
    if len(spec) != len(shapes):
        raise ConfigError(path, f"expected {len(shapes)} entries, got {len(spec)}")
    return [_matrix(t, f"{path}[{j}]", s) for j, (t, s) in enumerate(zip(spec, shapes))]


def build_problem(spec: dict, path: str = "problem"):
    kind = _require(spec, path, "kind", str)
    if kind == "separable_quadratic":
        shapes = _shapes(spec, path)
        curvatures = _require(spec, path, "curvatures", list)
        if len(curvatures) != len(shapes):
            raise ConfigError(
                f"{path}.curvatures", f"expected {len(shapes)} entries, got {len(curvatures)}"
            )
        for j, (w, shape) in enumerate(zip(curvatures, shapes)):
            where = f"{path}.curvatures[{j}]"
            if isinstance(w, list):
                _expect(np.all(_matrix(w, where, shape) > 0), where, "positive entries", w)
            else:
                _expect(_is_finite(w) and w > 0, where, "a positive number or a matrix", w)
        targets = _separable_targets(spec.get("targets", "zeros"), f"{path}.targets", shapes)
        return problems.SeparableQuadratic(targets, curvatures)
    if kind == "coupled_quadratic":
        shapes = _shapes(spec, path)
        curvatures = _numbers(
            _require(spec, path, "curvatures"), f"{path}.curvatures", len(shapes), positive=True
        )
        coupling = _require(spec, path, "coupling")
        _expect(_is_finite(coupling), f"{path}.coupling", "a finite number", coupling)
        map_seed = _integer(spec.get("map_seed", 0), f"{path}.map_seed")
        try:
            return problems.CoupledQuadratic(
                [np.zeros(s) for s in shapes], curvatures, float(coupling),
                rng=np.random.default_rng(map_seed),
            )
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind == "tiny_mlp":
        layer_sizes = _require(spec, path, "layer_sizes", list)
        if len(layer_sizes) < 2:
            raise ConfigError(
                f"{path}.layer_sizes",
                f"need at least 2 sizes (input and output), got {len(layer_sizes)}",
            )
        for j, n in enumerate(layer_sizes):
            _integer(n, f"{path}.layer_sizes[{j}]", 1)
        activation = spec.get("activation", "tanh")
        _expect(activation in ("tanh", "relu"), f"{path}.activation", '"tanh" or "relu"',
                activation)
        n_samples = _integer(spec.get("n_samples", 64), f"{path}.n_samples", 1)
        n_clusters = _integer(spec.get("n_clusters", 3), f"{path}.n_clusters", 1)
        seed = _integer(spec.get("seed", 0), f"{path}.seed")
        return problems.TinyMlp.synthetic(
            layer_sizes, n_samples=n_samples, n_clusters=n_clusters, activation=activation,
            seed=seed,
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
        if len(spec) != b:
            raise ConfigError(path, f"expected {b} entries, got {len(spec)}")
        norms = []
        for j, s in enumerate(spec):
            try:
                norms.append(NormKind(s))
            except ValueError as exc:
                raise ConfigError(f"{path}[{j}]", str(exc)) from exc
        return norms
    raise ConfigError(path, "expected a norm name or a list of norm names")


def _build_noise(spec, b: int, path: str = "noise"):
    if spec is None:
        return None
    sigmas = _numbers(_require(spec, path, "sigmas"), f"{path}.sigmas", b)
    try:
        return problems.NoiseSpec(tuple(sigmas))
    except ValueError as exc:
        raise ConfigError(f"{path}.sigmas", str(exc)) from exc


def _build_cost(spec, b: int, path: str = "cost") -> CostParams | None:
    if spec is None:
        return None
    c_ov = _require(spec, path, "c_ov")
    _expect(_is_finite(c_ov), f"{path}.c_ov", "a finite number", c_ov)
    for key in ("c", "c_sharp"):
        _numbers(_require(spec, path, key), f"{path}.{key}", b)
    try:
        return CostParams.from_dict(spec)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_policy(spec: dict, b: int, path: str):
    kind = _require(spec, path, "kind", str)
    if kind == "smooth_inverse":
        return optimizer.SmoothInverse()
    if kind == "gen_smooth_inverse":
        return optimizer.GenSmoothInverse()
    if kind == "fixed_radius":
        radii = _numbers(_require(spec, path, "radii"), f"{path}.radii", b, positive=True)
        beta = spec.get("beta", 0.9)
        _expect(_is_finite(beta) and 0 <= beta <= 1, f"{path}.beta", "a number in [0, 1]", beta)
        return optimizer.FixedRadius(tuple(radii), float(beta))
    if kind == "horizon":
        eta = spec.get("eta")
        if eta is not None:
            eta = tuple(_numbers(eta, f"{path}.eta", b, positive=True))
        return optimizer.HorizonSchedule(eta)
    raise ConfigError(f"{path}.kind", f"unknown policy kind {kind!r}")


def build_x0(spec, problem, path: str = "x0") -> list[np.ndarray]:
    spec = {} if spec is None else _expect(isinstance(spec, dict), path, "an object", spec)
    kind = spec.get("kind", "zeros")
    if kind == "zeros":
        return [np.zeros(s) for s in problem.shapes]
    if kind == "random":
        scale = spec.get("scale", 1.0)
        rng = np.random.default_rng(_integer(spec.get("seed", 0), f"{path}.seed"))
        _expect(_is_finite(scale), f"{path}.scale", "a finite number", scale)
        quadratic = isinstance(problem, (problems.SeparableQuadratic, problems.CoupledQuadratic))
        out = []
        for i, s in enumerate(problem.shapes):
            center = problem.targets[i] if quadratic else np.zeros(s)
            out.append(center + float(scale) * rng.standard_normal(s))
        return out
    if kind == "arrays":
        values = _require(spec, path, "values", list)
        if len(values) != problem.b:
            raise ConfigError(f"{path}.values", f"expected {problem.b} entries, got {len(values)}")
        return [
            _matrix(v, f"{path}.values[{j}]", shape)
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
    table: SmoothnessTable | None         # the smoothness-inverse policies' constants
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
    name = _require(spec, path, "name", str)
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"{path}.name", f"{name!r} is not a file name stem")
    if name in names:
        raise ConfigError(f"{path}.name", f"duplicate variant name {name!r}")
    try:
        scheme = sampling.scheme_from_dict(_require(spec, path, "scheme", dict))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.scheme", str(exc)) from exc
    b = problem.b
    if scheme.b != b:
        raise ConfigError(f"{path}.scheme", f"scheme has {scheme.b} layers, the problem has {b}")
    policy = build_policy(spec.get("policy", {"kind": "smooth_inverse"}), b, f"{path}.policy")

    table, weights, caps = None, np.ones(b), None
    if isinstance(policy, (optimizer.SmoothInverse, optimizer.GenSmoothInverse)):
        try:
            table = problems.smoothness_constants(problem, scheme, norms)
        except ValueError as exc:
            raise ConfigError(f"{path}.policy", str(exc)) from exc
        try:
            tw = costmodel.theory_weights(costmodel.cutoff_probs(scheme), table, "smooth")
            weights = tw.w / tw.mean
        except (ValueError, KeyError):
            pass  # no RPT rate weights for this scheme: the CSV weighs layers equally
    if isinstance(policy, optimizer.HorizonSchedule) and caps_table is not None \
            and caps_table.l1 is not None:
        try:
            p = costmodel.cutoff_probs(scheme)
            rho = [math.sqrt(geometry.norm_ratio_squared(*ks)) for ks in zip(norms, problem.shapes)]
            caps = costmodel.horizon_eta_caps(p, caps_table, iterations, rho).tolist()
        except ValueError:
            pass  # no cutoff distribution, no caps
        except KeyError as exc:
            raise ConfigError("config.smoothness_table", exc.args[0]) from exc
    return VariantPlan(name, scheme, policy, table, weights, caps)


def compile_plan(cfg: dict, seed: int | None = None) -> RunPlan:
    """Check ``cfg`` and build every object a run needs once, before any output.

    ``seed`` (the ``--seed`` flag) replaces the config's seeds.  Raises
    ConfigError naming the field path of the first fault.
    """
    problem = build_problem(_require(cfg, "config", "problem", dict))
    b = problem.b
    norms = build_norms(cfg.get("norms"), b)
    noise = _build_noise(cfg.get("noise"), b)
    x0 = build_x0(cfg.get("x0"), problem)
    cost = _build_cost(cfg.get("cost"), b)
    iterations = _integer(_require(cfg, "config", "iterations"), "config.iterations")
    seeds = _require(cfg, "config", "seeds", list)
    if not seeds:
        raise ConfigError("config.seeds", "must be non-empty")
    for j, s in enumerate(seeds):
        _integer(s, f"config.seeds[{j}]")
        if s in seeds[:j]:
            raise ConfigError(f"config.seeds[{j}]", f"duplicate seed {s}")
    if seed is not None:
        seeds = [_integer(seed, "--seed")]
    targets = [float(t) for t in _numbers(cfg.get("targets", []), "config.targets")]
    _expect(isinstance(cfg.get("out", ""), str), "config.out", "a string", cfg.get("out"))

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
    variant_specs = _require(cfg, "config", "variants", list)
    if not variant_specs:
        raise ConfigError("config.variants", "must be non-empty")
    variants = []
    for j, spec in enumerate(variant_specs):
        variants.append(_plan_variant(
            spec, f"config.variants[{j}]", problem, norms, iterations, caps_table,
            {v.name for v in variants},
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


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        plan = compile_plan(cfg, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    problem = plan.problem
    out_dir = Path(args.out or cfg.get("out", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)

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
        "metadata": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "tool": "droptrain"},
    }

    for variant in plan.variants:
        per_seed = {}
        # seeds run serially: threads gain nothing on this GIL-bound loop
        for seed in plan.seeds:
            try:
                # the run's finiteness guard reports an overflow itself;
                # numpy's floating-point warnings would only repeat it
                with np.errstate(over="ignore", invalid="ignore"):
                    result = optimizer.run(
                        problem, variant.scheme, variant.policy, plan.iterations, seed,
                        norms=plan.norms, x0=plan.x0, table=variant.table, noise=plan.noise,
                    )
                    rows, cumulative_cost = _csv_rows(result, variant.weights, problem, plan.cost)
            except (KeyError, ValueError) as exc:
                print(f"run error: variant {variant.name!r}, seed {seed}: {exc}", file=sys.stderr)
                return 1
            csv_path = out_dir / f"{variant.name}_seed{seed}.csv"
            lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
            with csv_path.open("w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            per_seed[str(seed)] = {
                "initial_f": result.f_initial,
                "final_f": result.f_final,
                "final_fgap": result.f_final - problem.f_star,
                "cumulative_cost": cumulative_cost,
                "time_to_target": _time_to_target(rows, plan.targets),
                "csv": csv_path.name,
            }
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
    """The table at ``path``; ValueError if a constant is not finite or not monotone."""
    table = SmoothnessTable.from_dict(json.loads(Path(path).read_text()))
    for which, constants in (("L0", table.l0), ("L1", table.l1 or {})):
        for (i, key), value in sorted(constants.items()):
            if not math.isfinite(value):
                raise ValueError(f"{which} of layer {i}, set key {key} is {value}")
    violations = table.monotonicity_violations()
    if violations:
        raise ValueError(f"constants not monotone over nested sets: {', '.join(violations)}")
    return table


def _load_cost(path: str) -> CostParams:
    return CostParams.from_dict(json.loads(Path(path).read_text()))


REGIMES = {"smooth": "smooth", "l0l1-eps": "l0l1_eps", "l0l1-eps2": "l0l1_eps2"}


def cmd_optimal_probs(args) -> int:
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
            cp = _load_cost(args.cost) if args.cost else None
            if cp is None:
                print("l0l1 regimes need --cost", file=sys.stderr)
                return 2
            regime = "eps" if args.regime == "l0l1-eps" else "eps2"
            sol = costmodel.optimal_rpt_probs_l0l1(table, cp, regime)
            verdict = (
                "full-network optimal candidate (first-layer condition holds)"
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
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("p* =", " ".join(f"{x:.6f}" for x in out["p"]))
    print("verdict:", out["verdict"])
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _bad_flag(flag: str, what: str, value) -> int:
    print(f"error: {flag}: expected {what}, got {value!r}", file=sys.stderr)
    return 2


def cmd_cost(args) -> int:
    for flag, value in (("--eps", args.eps), ("--delta0", args.delta0)):
        if not (math.isfinite(value) and value > 0):
            return _bad_flag(flag, "a finite number > 0", value)
    try:
        scheme = sampling.scheme_from_dict(json.loads(Path(args.scheme).read_text()))
        if isinstance(scheme, sampling.EpochShiftRpt):
            raise ValueError("an epoch_shift scheme has no fixed cost: its cutoffs move with k / K")
        table = _load_table(args.table)
        cp = _load_cost(args.cost)
        breakdown = costmodel.total_cost(
            scheme, cp, table, args.eps, REGIMES[args.regime], delta0=args.delta0
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(dataclasses.asdict(breakdown), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# marginals command
# ---------------------------------------------------------------------------

def cmd_marginals(args) -> int:
    for flag, value, minimum in (("--draws", args.draws, 1), ("--seed", args.seed, 0)):
        if value < minimum:
            return _bad_flag(flag, f"an integer >= {minimum}", value)
    try:
        scheme = sampling.scheme_from_dict(json.loads(Path(args.scheme).read_text()))
        if isinstance(scheme, sampling.EpochShiftRpt):
            scheme = scheme.at(args.progress)
        f_ana, q_ana = sampling.marginals(scheme)
    except (OSError, TypeError, ValueError) as exc:
        print(f"scheme error: {exc}", file=sys.stderr)
        return 2
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
    if args.out:
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
    p_opt.add_argument("--cost", default=None, help="cost params JSON (l0l1 regimes)")
    p_opt.add_argument("--regime", choices=sorted(REGIMES), default="smooth")
    p_opt.set_defaults(func=cmd_optimal_probs)

    p_ver = sub.add_parser("verify", help="run a property/oracle suite")
    p_ver.add_argument(
        "--suite", required=True,
        choices=sorted(verify.SUITES) + ["all"],
    )
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None, help="write a JSON report here")
    p_ver.set_defaults(func=cmd_verify)

    p_marg = sub.add_parser("marginals", help="analytic vs empirical marginals")
    p_marg.add_argument("--scheme", required=True, help="scheme JSON path")
    p_marg.add_argument("--draws", type=int, default=100_000)
    p_marg.add_argument("--seed", type=int, default=0)
    p_marg.add_argument("--progress", type=float, default=0.0,
                        help="training progress for epoch-shift schemes")
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
