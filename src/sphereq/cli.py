"""Command-line surface.

Subcommands: generate, refine, score, interpolate, sweep, table1, table2,
convert.  Exit codes: 0 success, 2 argument error, 3 numerical failure
(singularity or conditioning), 4 I/O error.  Identical flags and seeds
produce byte-identical output files.  Malformed seed lists and epsilon grids
are argument errors (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import (
    CapabilityError,
    ConditioningError,
    ConfigurationError,
    DomainError,
    PointSetFormatError,
    PointSetValidationError,
    SingularKernelError,
    require,
)
from .discrepancy import (
    PointSet,
    mean_pair_discrepancy,
    rms_discrepancy,
    series_generalized_discrepancy,
)
from .interpolation import epsilon_sweep, fit_interpolant, franke_eval
from .kernels import is_singular_at_coincidence, parse_kernel
from .pointgen import RefineParams, greedy_generate, random_unit_points, riesz_refine
from .sphio import cartesian_to_spherical, csv_text, read_points, read_pointset
from .sphio import write_pointset, write_text
from . import tables


def _number(text: str, kind, what: str):
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"{what}: {text.strip()!r} is not a number") from None


def _parse_seeds(text: str) -> list[int]:
    seeds = [_number(p, int, "seed list") for p in text.split(",") if p.strip()]
    rule = "seed list must be comma-separated non-negative integers"
    require(seeds != [] and min(seeds) >= 0, rule)
    return seeds


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise DomainError("epsilon grid must be start:stop:step")
        start, stop, step = (_number(p, float, "epsilon grid") for p in fields)
        rule = "epsilon grid must be start:stop:step, finite, with stop >= start and step > 0"
        require(-math.inf < start <= stop < math.inf and 0.0 < step < math.inf, rule)
        require((stop - start) / step < 1e6, "epsilon grid must have fewer than a million points")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    return [_number(p, float, "epsilon grid") for p in text.split(",") if p.strip()]


def _emit(text: str, out) -> None:
    """``text`` into the file ``out``, or to stdout without one."""
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    spec = parse_kernel(args.kernel)
    pts = greedy_generate(args.n, spec, seed=args.seed, grid_size=args.grid)
    write_pointset(args.out, pts)
    return 0


def _history_path(out: str) -> str:
    return os.path.splitext(out)[0] + "_history.csv"


def _refine_params(args) -> RefineParams:
    return RefineParams(
        k_neighbors=args.knn, iterations=args.iters, riesz_s=args.riesz_s, offset=args.offset
    )


def _cmd_refine(args) -> int:
    pts = read_pointset(args.input) if args.input else random_unit_points(args.n, seed=args.seed)
    refined, history = riesz_refine(pts, _refine_params(args))
    write_pointset(args.out, refined)
    _emit(csv_text("iteration,discrepancy", enumerate(history)), _history_path(args.out))
    return 0


def _cmd_score(args) -> int:
    pts = read_pointset(args.input)
    spec = parse_kernel(args.kernel)
    if args.m:
        spec = parse_kernel(f"{args.kernel}:d{args.m}")
    if args.nmax:
        report = series_generalized_discrepancy(
            pts, spec.family, m=spec.m, n_max=args.nmax, s=spec.s
        )
    else:
        policy = "exclude" if is_singular_at_coincidence(spec) else "include"
        if args.method == "mean":
            report = mean_pair_discrepancy(pts, spec, policy)
        else:
            report = rms_discrepancy(pts, spec, policy)
    _emit(json.dumps(report.to_json_dict(), sort_keys=True) + "\n", args.out)
    return 0


def _centers(args) -> PointSet:
    if args.input:
        return read_pointset(args.input)
    return greedy_generate(args.n, parse_kernel("pycke"), seed=args.seed, grid_size=args.grid)


def _cmd_interpolate(args) -> int:
    centers = _centers(args)
    y = franke_eval(centers.points)
    model = fit_interpolant(
        centers,
        y,
        parse_kernel(args.kernel),
        epsilon=args.epsilon,
        sigma=args.sigma,
        poly_degree=args.degree,
    )
    _emit(json.dumps(model.to_json_dict()) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    centers = _centers(args)
    y = franke_eval(centers.points)
    report = epsilon_sweep(
        centers,
        y,
        parse_kernel(args.kernel),
        eps_grid=_parse_grid(args.epsilon),
        sigma=args.sigma,
        poly_degree=args.degree,
    )
    _emit(report.to_csv_text(), args.out)
    return 0


def _cmd_table1(args) -> int:
    rows = tables.run_table1(seeds=_parse_seeds(args.seed), grid_size=args.grid, n_max=args.nmax)
    _emit(tables.rows_to_csv(rows), args.out)
    return 0


def _cmd_table2(args) -> int:
    rows = tables.run_table2(seeds=_parse_seeds(args.seed), params=_refine_params(args))
    _emit(tables.rows_to_csv(rows), args.out)
    return 0


def _cmd_convert(args) -> int:
    header, pts = read_points(args.input)
    if args.format == "json":
        _emit(json.dumps({"points": pts.points.tolist()}) + "\n", args.out)
    elif header == "theta,phi":
        write_pointset(args.out, pts)
    else:
        _emit(csv_text("theta,phi", map(cartesian_to_spherical, pts.points)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereq",
        description="Point systems on the unit sphere: generation, "
        "discrepancy scoring, interpolation, benchmark tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_gen(p):
        p.add_argument("--kernel", default="pycke", help="kernel name, e.g. pycke:d1")
        p.add_argument("--n", type=int, default=100)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--grid", type=int, default=8192, help="argmin grid size")

    def refine_flags(p):
        p.add_argument("--knn", type=int, default=12)
        p.add_argument("--iters", type=int, default=200)
        p.add_argument("--riesz-s", type=float, default=1.0)
        p.add_argument("--offset", type=float, default=19.0)

    p = sub.add_parser("generate", help="greedy node generation")
    common_gen(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("refine", help="k-NN Riesz descent refinement")
    p.add_argument("input", nargs="?", help="point-set CSV (default: random start)")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    refine_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("score", help="discrepancy report for a point set")
    p.add_argument("input")
    p.add_argument("--kernel", default="cui-freeden")
    p.add_argument("--m", type=int, default=0, help="derivative order")
    p.add_argument("--nmax", type=int, default=0, help="score by series up to n_max")
    p.add_argument("--method", choices=("rms", "mean"), default="rms")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_score)

    def common_fit(p):
        p.add_argument("input", nargs="?", help="centers CSV (default: greedy nodes)")
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--grid", type=int, default=8192)
        p.add_argument("--kernel", default="cui-freeden")
        p.add_argument("--sigma", type=float, default=0.0)
        p.add_argument("--degree", type=int, default=1)

    p = sub.add_parser("interpolate", help="fit the four-Gaussian benchmark target")
    common_fit(p)
    p.add_argument("--epsilon", type=float, default=2.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("sweep", help="shape-parameter sweep by fast LOOCV")
    common_fit(p)
    p.add_argument("--epsilon", default="0.5:6:0.25", help="grid start:stop:step")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table1", help="greedy node-set benchmark table")
    p.add_argument("--seed", default="42,43,44", help="comma-separated seed panel")
    p.add_argument("--grid", type=int, default=8192)
    p.add_argument("--nmax", type=int, default=tables.TABLE1_NMAX)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="refined node-set benchmark table")
    p.add_argument("--seed", default="1,2,3,4,5", help="comma-separated seed panel")
    refine_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("convert", help="cartesian/spherical CSV conversion")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularKernelError, ConditioningError, ConfigurationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, PointSetFormatError, PointSetValidationError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
