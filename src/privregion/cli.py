"""Command-line front end: study runners plus one-off attack/obfuscate tools.

Exit codes: 0 on success, 2 on configuration or input-format errors, 3 on
numerical failures (quadrature guards, degenerate geometry).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import BetaParams, DegenerateConfiguration, GammaParams, Point, derive_rng
from .experiments import (
    _TASK_ATTACK,
    ConfigError,
    _write_csv,
    load_config,
    run_bench,
    run_calibrate,
    run_curve,
    run_obfuscate,
    run_table1,
)
from .harmonic import ThetaOutsideRegion
from .inference import DiagnosticsFailed, InconsistentExits, NoIntersection, attack
from .strategies import (
    DegenerateVariance,
    FixedRadius,
    RandomRadius,
    TwoBalls,
    generate_observations,
)
from .trajectory import TrackFormatError

_CONFIG_ERRORS = (ConfigError, TrackFormatError, OSError)
_NUMERICAL_ERRORS = (
    DiagnosticsFailed,
    DegenerateVariance,
    DegenerateConfiguration,
    InconsistentExits,
    NoIntersection,
    ThetaOutsideRegion,
)


def _add_common(p: argparse.ArgumentParser, replicates: bool = True) -> None:
    p.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--threads", type=int, help="worker processes")
    if replicates:
        p.add_argument("--replicates", type=int, help="replicates per setting")


def _add_strategy(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strategy",
        required=True,
        choices=["two-balls", "random-radius", "fixed-radius"],
    )
    p.add_argument("--r", type=float, help="two-balls inner radius")
    p.add_argument("--R", type=float, help="two-balls region radius")
    p.add_argument("--alpha", type=float, help="Beta/Gamma alpha")
    p.add_argument("--beta", type=float, help="Beta/Gamma beta (rate)")
    p.add_argument("--r-star", type=float, dest="r_star", help="fixed radius")
    p.add_argument("--theta", default="0,0", help="home location as 'x,y'")


def _require(args, names: list[str]):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        raise ConfigError(f"--strategy {args.strategy} needs {flags}")
    return [getattr(args, n) for n in names]


def _build_spec(args):
    try:
        if args.strategy == "two-balls":
            r, big_r, a, b = _require(args, ["r", "R", "alpha", "beta"])
            return TwoBalls(r, big_r, BetaParams(a, b))
        if args.strategy == "random-radius":
            a, b = _require(args, ["alpha", "beta"])
            return RandomRadius(GammaParams(a, b))
        (r_star,) = _require(args, ["r_star"])
        return FixedRadius(r_star)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _parse_theta(text: str) -> Point:
    try:
        x, y = (float(v) for v in text.split(","))
        return Point(x, y)
    except ValueError as e:
        raise ConfigError(f"--theta must be 'x,y', got {text!r}") from e


def _scenario(args):
    return load_config(
        args.config,
        master_seed=args.seed,
        out_dir=args.out,
        threads=args.threads,
        n_replicates=getattr(args, "replicates", None),
    )


def _cmd_table1(args) -> int:
    res = run_table1(_scenario(args))
    for s in res.summary:
        print(
            f"{s['setting']} {s['strategy']}: mean_sp={s['mean_sp']:.4g} "
            f"mse_median={s['mse_median']:.4g}"
        )
    print(f"wrote {res.files['results']} and {res.files['summary']}")
    return 0


def _cmd_curve(args) -> int:
    res = run_curve(_scenario(args))
    for s in res.summary:
        print(f"{s['strategy']} n={s['n']}: mse_median={s['mse_median']:.4g}")
    print(f"wrote {res.files['curve_results']} and {res.files['mse_curve_svg']}")
    return 0


def _cmd_calibrate(args) -> int:
    res = run_calibrate(_scenario(args))
    for cal in res.calibrations:
        g = cal.matched_gamma
        print(
            f"sp_mean={cal.sp_mean:.6g} sp_var={cal.sp_var:.6g} -> "
            f"Gamma(alpha={g.alpha:.6g}, beta={g.beta:.6g})"
        )
    print(f"wrote {res.files['calibration']}")
    return 0


def _cmd_bench(args) -> int:
    res = run_bench(_scenario(args))
    for name, (slope, intercept) in res.fits.items():
        line = f"{name}: slope={slope:.3g}s/trajectory intercept={intercept:.3g}s"
        if name in res.ratios:
            line += f" t200/t50={res.ratios[name]:.2f}"
        print(line)
    print(f"wrote {res.files['bench']} and {res.files['bench_summary']}")
    return 0


def _cmd_attack(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    spec = _build_spec(args)
    theta = _parse_theta(args.theta)
    conf = _scenario(args)
    rng = derive_rng(conf.master_seed, _TASK_ATTACK, 0)
    obs = generate_observations(theta, spec, args.n, rng)
    rep = attack(obs, theta, rng)
    print(f"strategy={args.strategy} n={args.n} seed={conf.master_seed}")
    print(f"posterior_mean={rep.posterior_mean.x!r},{rep.posterior_mean.y!r}")
    print(f"posterior_mse={rep.posterior_mse!r}")
    print(f"bias2={rep.bias2!r} variance={rep.variance!r}")
    if rep.grids:
        angles = 2 * rep.nodes if rep.rule == "polar" else rep.nodes
        print(
            f"grid={rep.nodes}x{angles} grids={rep.grids} rule={rep.rule} "
            f"rule_gap={rep.rule_gap:.3g} edge_mass={rep.edge_mass:.3g}"
        )
    print(f"wall_time={rep.wall_time:.3f}s")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "attack_report.csv"
        mean = rep.posterior_mean
        row = [args.strategy, args.n, conf.master_seed, mean.x, mean.y]
        _write_csv(
            path,
            "strategy n seed mean_x mean_y posterior_mse bias2 variance".split(),
            [row + [rep.posterior_mse, rep.bias2, rep.variance]],
        )
        print(f"wrote {path}")
    return 0


def _cmd_obfuscate(args) -> int:
    if args.seed is None:
        raise ConfigError("obfuscate needs --seed")
    if args.out is None:
        raise ConfigError("obfuscate needs --out")
    spec = _build_spec(args)
    theta = _parse_theta(args.theta)
    res = run_obfuscate(args.tracks, theta, spec, args.seed, args.out)
    for row in res.rows:
        print(f"{row['file']}: published={str(row['published']).lower()} sp={row['sp']!r}")
    print(f"wrote {res.files['report']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privregion",
        description="Privacy-region obfuscation strategies and home-location attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="six-setting strategy comparison")
    _add_common(p)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("curve", help="posterior MSE vs number of trajectories")
    _add_common(p)
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("calibrate", help="moment-match random-radius to two-balls")
    _add_common(p, replicates=False)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("attack", help="one synthetic attack with a chosen strategy")
    _add_common(p, replicates=False)
    _add_strategy(p)
    p.add_argument("--n", type=int, default=50, help="number of observations")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("obfuscate", help="cut real t,x,y tracks with privacy regions")
    p.add_argument("tracks", nargs="+", type=Path, help="input track CSVs")
    _add_strategy(p)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", type=Path, help="output directory")
    p.set_defaults(fn=_cmd_obfuscate)

    p = sub.add_parser("bench", help="attack wall time vs number of trajectories")
    _add_common(p, replicates=False)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
