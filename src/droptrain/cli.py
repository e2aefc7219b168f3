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

def _require(cfg: dict, path: str, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    return value


def build_problem(spec: dict, path: str = "problem"):
    kind = _require(spec, path, "kind", str)
    if kind == "separable_quadratic":
        shapes = [tuple(s) for s in _require(spec, path, "shapes", list)]
        curvatures = _require(spec, path, "curvatures", list)
        targets_spec = spec.get("targets", "zeros")
        if targets_spec == "zeros":
            targets = [np.zeros(s) for s in shapes]
        elif isinstance(targets_spec, dict) and "seed" in targets_spec:
            trng = np.random.default_rng(int(targets_spec["seed"]))
            targets = [trng.standard_normal(s) for s in shapes]
        else:
            targets = [np.asarray(t, dtype=float) for t in targets_spec]
        try:
            return problems.SeparableQuadratic(targets, curvatures)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind == "coupled_quadratic":
        shapes = [tuple(s) for s in _require(spec, path, "shapes", list)]
        targets = [np.zeros(s) for s in shapes]
        try:
            return problems.CoupledQuadratic(
                targets,
                _require(spec, path, "curvatures", list),
                float(_require(spec, path, "coupling")),
                rng=np.random.default_rng(int(spec.get("map_seed", 0))),
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
        try:
            return problems.TinyMlp.synthetic(
                layer_sizes,
                n_samples=int(spec.get("n_samples", 64)),
                n_clusters=int(spec.get("n_clusters", 3)),
                activation=spec.get("activation", "tanh"),
                seed=int(spec.get("seed", 0)),
            )
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
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
    sigmas = _require(spec, path, "sigmas", list)
    if len(sigmas) != b:
        raise ConfigError(f"{path}.sigmas", f"expected {b} entries, got {len(sigmas)}")
    try:
        return problems.NoiseSpec(tuple(sigmas))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.sigmas", str(exc)) from exc


def build_policy(spec: dict, path: str):
    kind = _require(spec, path, "kind", str)
    if kind == "smooth_inverse":
        return optimizer.SmoothInverse()
    if kind == "gen_smooth_inverse":
        return optimizer.GenSmoothInverse()
    if kind == "fixed_radius":
        return optimizer.FixedRadius(
            tuple(_require(spec, path, "radii", list)), float(spec.get("beta", 0.9))
        )
    if kind == "horizon":
        eta = spec.get("eta")
        return optimizer.HorizonSchedule(tuple(eta) if eta is not None else None)
    raise ConfigError(f"{path}.kind", f"unknown policy kind {kind!r}")


def build_x0(spec, problem, path: str = "x0"):
    if spec is None or spec.get("kind", "zeros") == "zeros":
        return [np.zeros(s) for s in problem.shapes]
    kind = spec["kind"]
    if kind == "random":
        rng = np.random.default_rng(int(spec.get("seed", 0)))
        scale = float(spec.get("scale", 1.0))
        base = getattr(problem, "targets", None)
        out = []
        for i, s in enumerate(problem.shapes):
            center = base[i] if base is not None else np.zeros(s)
            out.append(center + scale * rng.standard_normal(s))
        return out
    if kind == "arrays":
        values = _require(spec, path, "values", list)
        return [np.asarray(v, dtype=float) for v in values]
    raise ConfigError(f"{path}.kind", f"unknown x0 kind {kind!r}")


def load_config(config_path: str) -> dict:
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"cannot read {config_path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    seeds = _require(cfg, "config", "seeds", list)
    if not seeds:
        raise ConfigError("config.seeds", "must be non-empty")
    variants = _require(cfg, "config", "variants", list)
    if not variants:
        raise ConfigError("config.variants", "must be non-empty")
    for j, v in enumerate(variants):
        _require(v, f"config.variants[{j}]", "name", str)
        scheme_spec = _require(v, f"config.variants[{j}]", "scheme", dict)
        try:
            sampling.scheme_from_dict(scheme_spec)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"config.variants[{j}].scheme", str(exc)) from exc
        if "policy" in v:
            build_policy(v["policy"], f"config.variants[{j}].policy")
    _require(cfg, "config", "iterations", int)
    _require(cfg, "config", "problem", dict)
    return cfg


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _variant_weights(scheme, table, b) -> np.ndarray:
    """Normalized rate weights for the CSV aggregate; ones when unavailable."""
    try:
        tw = optimizer.theory_weights(costmodel.cutoff_probs(scheme), table, "smooth")
        return tw.w / tw.mean
    except (ValueError, KeyError):
        return np.ones(b)


def _run_one_variant_seed(problem, cfg, variant, scheme, norms, noise, seed):
    policy = build_policy(variant.get("policy", {"kind": "smooth_inverse"}), "policy")
    cost_params = CostParams.from_dict(cfg["cost"]) if cfg.get("cost") else None

    table = None
    needs_l1 = isinstance(policy, optimizer.GenSmoothInverse)
    if isinstance(policy, (optimizer.SmoothInverse, optimizer.GenSmoothInverse)):
        table = problems.smoothness_constants(problem, scheme, norms, with_l1_zeros=needs_l1)

    result = optimizer.run(
        problem, scheme, policy, cfg["iterations"], seed,
        norms=norms, x0=build_x0(cfg.get("x0"), problem), table=table, noise=noise,
        cost_params=cost_params,
    )
    weights = _variant_weights(scheme, table, problem.b) if table is not None else np.ones(problem.b)

    rows = []
    cum = 0.0
    for r in result.reports:
        cum += r.cost_units or 0.0
        gsq = sum(
            weights[i - 1] * r.grad_dual_norms[i] ** 2 for i in range(1, problem.b + 1)
        )
        row = [r.k, r.f_before, r.f_after, r.f_after - problem.f_star, gsq]
        row += [r.grad_dual_norms[i] for i in range(1, problem.b + 1)]
        cum_units = cum if r.cost_units is not None else None
        row += [min(r.active), r.cost_units, cum_units, r.fwd_macs]
        rows.append(row)
    return result, rows


def _horizon_caps_for_variant(variant, scheme, table, iterations):
    """Radius-cap constants of the horizon schedule when a table is supplied."""
    if table is None or table.l1 is None:
        return None
    if variant.get("policy", {}).get("kind") != "horizon":
        return None
    try:
        p = costmodel.cutoff_probs(scheme)
    except ValueError:
        return None
    return optimizer.horizon_eta_caps(p, table, iterations).tolist()


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
        problem = build_problem(cfg["problem"])
        # shared by every (variant, seed); built once, before any output is written
        schemes = [sampling.scheme_from_dict(v["scheme"]) for v in cfg["variants"]]
        for j, scheme in enumerate(schemes):
            if scheme.b != problem.b:
                raise ConfigError(
                    f"config.variants[{j}].scheme",
                    f"scheme has {scheme.b} layers, the problem has {problem.b}",
                )
        norms = build_norms(cfg.get("norms"), problem.b)
        noise = _build_noise(cfg.get("noise"), problem.b)
        caps_table = None
        if "smoothness_table" in cfg:
            try:
                caps_table = _load_table(cfg["smoothness_table"])
            except (OSError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    "config.smoothness_table", f"cannot load {cfg['smoothness_table']}: {exc}"
                ) from exc
        out_dir = Path(args.out or cfg.get("out", "results"))
        out_dir.mkdir(parents=True, exist_ok=True)
        seeds = [int(s) for s in cfg["seeds"]]
        if args.seed is not None:
            seeds = [args.seed]
        thresholds = [float(t) for t in cfg.get("targets", [])]

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

        for variant, scheme in zip(cfg["variants"], schemes):
            name = variant["name"]
            per_seed = {}
            # seeds run serially: threads gain nothing on this GIL-bound loop
            for seed in seeds:
                try:
                    # the run's finiteness guard reports an overflow itself;
                    # numpy's floating-point warnings would only repeat it
                    with np.errstate(over="ignore", invalid="ignore"):
                        result, rows = _run_one_variant_seed(
                            problem, cfg, variant, scheme, norms, noise, seed
                        )
                except ConfigError:
                    raise
                except (KeyError, ValueError) as exc:
                    print(f"run error: variant {name!r}, seed {seed}: {exc}", file=sys.stderr)
                    return 1
                csv_path = out_dir / f"{name}_seed{seed}.csv"
                with csv_path.open("w", encoding="utf-8", newline="\n") as fh:
                    fh.write(",".join(columns) + "\n")
                    for row in rows:
                        fh.write(",".join(_fmt(v) for v in row) + "\n")
                per_seed[str(seed)] = {
                    "initial_f": result.f_initial,
                    "final_f": result.f_final,
                    "final_fgap": result.f_final - problem.f_star,
                    "cumulative_cost": result.cumulative_cost,
                    "time_to_target": _time_to_target(rows, thresholds),
                    "csv": csv_path.name,
                }
            summary["variants"][name] = per_seed
            caps = _horizon_caps_for_variant(variant, scheme, caps_table, cfg["iterations"])
            if caps is not None:
                summary["variants"][name]["eta_squared_caps"] = caps

        if len(cfg["variants"]) == 2 and thresholds:
            a, b_ = (v["name"] for v in cfg["variants"])
            ratios = {}
            for thr in thresholds:
                per = []
                for seed in seeds:
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
        print(f"wrote {len(cfg['variants']) * len(seeds)} CSV file(s) and summary.json to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# optimal-probs / cost commands
# ---------------------------------------------------------------------------

def _load_table(path: str) -> SmoothnessTable:
    return SmoothnessTable.from_dict(json.loads(Path(path).read_text()))


def _load_cost(path: str) -> CostParams:
    return CostParams.from_dict(json.loads(Path(path).read_text()))


REGIMES = {"smooth": "smooth", "l0l1-eps": "l0l1_eps", "l0l1-eps2": "l0l1_eps2"}


def cmd_optimal_probs(args) -> int:
    try:
        table = _load_table(args.table)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
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
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("p* =", " ".join(f"{x:.6f}" for x in out["p"]))
    print("verdict:", out["verdict"])
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_cost(args) -> int:
    try:
        scheme = sampling.scheme_from_dict(json.loads(Path(args.scheme).read_text()))
        table = _load_table(args.table)
        cp = _load_cost(args.cost)
        breakdown = costmodel.total_cost(
            scheme, cp, table, args.eps, REGIMES[args.regime], delta0=args.delta0
        )
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(dataclasses.asdict(breakdown), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# marginals command
# ---------------------------------------------------------------------------

def cmd_marginals(args) -> int:
    try:
        scheme = sampling.scheme_from_dict(json.loads(Path(args.scheme).read_text()))
        if isinstance(scheme, sampling.EpochShiftRpt):
            scheme = scheme.at(args.progress)
        f_ana, q_ana = sampling.marginals(scheme)
    except (OSError, TypeError, ValueError, json.JSONDecodeError) as exc:
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
