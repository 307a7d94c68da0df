"""Command-line interface.

Subcommands:

* ``check FILE``        classify symmetry order, run the structural checks,
                        extract the curvature memory tensor and the Ricci
                        block split; emits a JSON report.
* ``generate ...``      write .metric file text for a plane-wave family or a
                        product with a Riemannian block.
* ``oracle-diff FILE``  per-block max deviation between the specialized
                        engine and the brute-force oracle.
* ``canonicalize FILE`` reconstruct the canonical plane-wave form (requires
                        a proper 2nd-symmetric verdict and an affine A(u)).
* ``transport FILE``    geodesic / null-sectional-curvature / transverse
                        transport experiments, emitted as CSV.

Exit codes: 0 success (determinate verdict / all deviations within
tolerance), 2 undetermined verdict or unmet precondition, 1 error.

All floating-point output is printed with 17 significant digits so values
round-trip exactly; reports are byte-deterministic given (file, flags).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import classify, metricfile
from .canonical import AFFINE_TOL, reconstruct
from .chart import MetricSpec
from .ode import step_size
from .spaces import CwParams
from .transport import (check_in_box, d0_transport, geodesic_integrate, null_sectional_growth,
                        null_velocity)

__all__ = ["main", "format_json", "SCHEMA_VERSION"]

SCHEMA_VERSION = 3


# -- deterministic serialization -------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return f"{x:.17g}"


def format_json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with fixed float formatting and stable key order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {format_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str)) or v is None for v in obj)
        if flat:
            return "[" + ", ".join(format_json(v) for v in obj) + "]"
        items = ",\n".join(f"{pad}  {format_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return format_json(obj.tolist(), indent)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_to_csv(report: dict) -> str:
    rows = ["key,value"]

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append(f"{prefix},{format_json(value)}")

    walk("", report)
    return "\n".join(rows) + "\n"


def _write_report(report: dict, args) -> None:
    if args.schema == "csv":
        _emit(_report_to_csv(report), args.out)
    else:
        _emit(format_json(report) + "\n", args.out)


# -- subcommands -----------------------------------------------------------------------


def _load(path: str) -> MetricSpec:
    return metricfile.load_metric_file(path)


def cmd_check(args) -> int:
    classify.check_tol(args.tol, "--tol")
    spec = _load(args.file)
    samples = classify.sample_points(spec, args.samples)
    classify.check_sample_count(len(samples))
    evaluations = classify.evaluate_samples(spec, samples, depth=args.depth)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "file": args.file,
        "flags": {"tol": args.tol, "samples": args.samples, "depth": args.depth},
    }
    rep = classify.symmetry_order(evaluations, args.tol)
    report.update(rep.to_dict())
    report["structural_checks"] = classify.check_theorem_redu(evaluations, args.tol).to_dict()
    report["A_tilde"] = classify.extract_A_tilde(evaluations).to_dict()
    report["eisenhart"] = classify.eisenhart_split(evaluations).to_dict()
    _write_report(report, args)
    return 0 if rep.determinate else 2


def cmd_generate(args) -> int:
    from .spaces import block_dimension, make_cw, make_product

    if args.kind == "cw":
        d, r = metricfile.check_dimension(args.dimension, "--dimension"), args.order
        if r < 1:
            raise ValueError(f"--order must be >= 1, got {r}")
        coeffs = [np.zeros((d - 2, d - 2)) for _ in range(r)]
        for spec_str in args.P or []:
            level, equals, rows = spec_str.partition("=")
            level = level.strip()
            if not equals:
                raise ValueError("coefficient syntax: --P level='r c; r c'")
            if level not in [str(k) for k in range(r)]:
                raise ValueError(f"--P {spec_str!r}: level {level!r} is outside "
                                 f"0 .. {r - 1} for order {r}")
            try:
                coeffs[int(level)] = metricfile.parse_matrix(rows, d - 2)
            except ValueError as err:
                raise ValueError(f"--P {level}: {err}") from None
        params = CwParams(d, tuple(coeffs))
        spec = make_cw(params)
        comment = f"plane wave: dimension {d}, order {r} (H quadratic coefficients expanded)"
    elif args.kind == "product":
        if not args.base:
            raise ValueError("product generation needs --base FILE")
        spec = _load(args.base)
        for b in args.block or ["sphere"]:
            metricfile.check_dimension(spec.n + block_dimension(b, args.radius), "product dimension")
            spec = make_product(spec, b, radius=args.radius)
        comment = f"product of {args.base} with {', '.join(args.block or ['sphere'])}"
    else:
        raise ValueError(f"unknown generator kind {args.kind!r}")
    _emit(metricfile.spec_to_text(spec, comment=comment), args.out)
    return 0


ORACLE_DIFF_TOL = 1e-8


def cmd_oracle_diff(args) -> int:
    if not 0.0 < args.tol < float("inf"):
        raise ValueError(f"--tol must be finite and positive, got {args.tol!r}")
    spec = _load(args.file)
    samples = classify.sample_points(spec, count=args.samples)
    evaluations = classify.evaluate_samples(spec, samples, depth=args.depth)
    worst = {key: float(dev.max()) for key, dev in evaluations.agreement.items()}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle-diff",
        "file": args.file,
        "flags": {"samples": args.samples, "depth": args.depth, "tol": args.tol},
        "max_relative_deviation": worst,
        "overall": max(worst.values()),
        "pass": bool(max(worst.values()) < args.tol),
    }
    _write_report(report, args)
    return 0 if report["pass"] else 1


def cmd_canonicalize(args) -> int:
    spec = _load(args.file)
    rep = classify.symmetry_order(classify.evaluate_samples(spec))
    report: dict = {"schema_version": SCHEMA_VERSION, "command": "canonicalize", "file": args.file}
    if rep.verdict != "proper_second_symmetric":
        report.update(error="precondition failed: metric is not proper 2nd-symmetric",
                      verdict=rep.verdict, residuals=rep.residuals)
        _write_report(report, args)
        return 2
    lo, hi = spec.box[0]
    interval = (lo if args.u_min is None else args.u_min,
                hi if args.u_max is None else args.u_max)
    cf = reconstruct(spec, u_interval=interval, steps=args.steps)
    steps = len(cf.us) - 1
    report.update(flags={"steps": steps}, verdict=rep.verdict)
    # The paper's proper case has A(u) affine; a verdict reached at finitely
    # many samples does not show that between them.
    threshold = AFFINE_TOL * (1.0 + float(np.max(np.abs(cf.A_of_u), initial=0.0)))
    if not cf.affine_residual <= threshold:
        misfit = np.abs(cf.A_of_u - cf.A0 - cf.us[:, None, None] * cf.A1)
        worst_u = float(cf.us[np.argmax(misfit.reshape(len(cf.us), -1).max(axis=1))])
        h = step_size(interval[1] - interval[0], steps)
        report.update(error=f"precondition failed: A(u) is not affine: affine_residual "
                            f"{cf.affine_residual:.2e} exceeds AFFINE_TOL * (1 + max|A|) = "
                            f"{threshold:.2e}, worst at u = {worst_u!r}; the residual includes "
                            f"the RK4 error of {steps} steps of h = {h:.2e}, so a larger "
                            f"--steps tells that error from a non-affine A(u)",
                      affine_residual=cf.affine_residual, affine_threshold=threshold,
                      worst_u=worst_u)
        _write_report(report, args)
        return 2
    report.update(cf.to_dict())
    stride = max(1, (len(cf.us) - 1) // 16)
    report["R_samples"] = [
        {"u": float(cf.us[k]), "R": cf.R_of_u[k].tolist(), "D": cf.D_of_u[k].tolist()}
        for k in range(0, len(cf.us), stride)
    ]
    _write_report(report, args)
    return 0


def cmd_transport(args) -> int:
    spec = _load(args.file)
    names = ["u"] + [f"x{i}" for i in range(2, spec.n)]
    if args.point is not None and len(args.point) != len(names):
        raise ValueError(f"--point has {len(args.point)} entries; a start point in dimension "
                         f"n = {spec.n} needs n - 1 = 1 + m = {len(names)}: {', '.join(names)}")
    for name, value in zip(names, args.point or ()):
        if not math.isfinite(value):
            raise ValueError(f"--point {name} = {value!r} is not finite; a start point needs "
                             f"finite coordinates")
    start = [0.5 * (lo + hi) for lo, hi in spec.box] if args.point is None else args.point
    check_in_box(spec.box, [start], lambda k: "start point")
    span = args.span
    if span is None:
        # u advances at rate 1 along d0 and along the null geodesic (du/dtau =
        # g(K, gamma') = 1 is conserved), so this span ends on the box's upper u edge.
        lo, hi = spec.box[0]
        span = hi - start[0]
        if not span > 0.0:
            raise ValueError(f"--point u = {start[0]!r} is not below the box's upper u edge "
                             f"{hi!r} (box u = {lo!r} {hi!r}); give --span")
    rows: list[str]
    if args.experiment != "d0":
        if args.experiment == "nullsec" and not spec.m:
            raise ValueError("nullsec needs a leaf direction X = d/dx2, and this chart has "
                             "none (m = 0)")
        v0 = null_velocity(spec, start, args.leaf_part)
        traj = geodesic_integrate(spec, [start[0], 0.0, *start[1:]], v0, span, args.steps)
    if args.experiment == "geodesic":
        cols = ["u", "v", *names[1:]]
        rows = ["tau," + ",".join(cols) + ","
                + ",".join("d" + c for c in cols) + ",energy,k_pairing"]
        for tau, x, v, energy, pairing in zip(
                traj.tau.tolist(), traj.coords.tolist(), traj.velocity.tolist(),
                traj.energy().tolist(), traj.k_pairing().tolist()):
            rows.append(",".join(map(_fmt_float, [tau, *x, *v, energy, pairing])))
    elif args.experiment == "nullsec":
        x_vec = np.zeros(spec.n)
        x_vec[2] = 1.0
        res = null_sectional_growth(spec, traj, x_vec)
        rows = ["tau,K"] + [f"{_fmt_float(tau)},{_fmt_float(K)}"
                            for tau, K in zip(res["tau"].tolist(), res["K"].tolist())]
        rows.append(f"# max_second_difference,{_fmt_float(res['max_second_difference'])}")
    else:
        if args.leaf_part is not None:
            raise ValueError("--leaf-part sets the initial null velocity of the geodesic and "
                             "nullsec experiments; --experiment d0 takes none")
        m = spec.m
        us, X = d0_transport(spec, start, np.eye(m), span, args.steps)
        rows = ["u," + ",".join(f"X{v}_{i + 2}" for v in range(m) for i in range(m))]
        rows += [",".join(map(_fmt_float, [u, *x]))
                 for u, x in zip(us.tolist(), X.reshape(len(us), m * m).tolist())]
    _emit("\n".join(rows) + "\n", args.out)
    return 0


# -- argument parsing --------------------------------------------------------------------


class _FloatSpelling:
    """Matches every string ``float`` reads, so ``-1e-3`` or ``-inf`` is a value."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in any spelling ``float``
    accepts as a value, where argparse alone takes ``-1e-3`` for an option name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatSpelling()


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="brinkmann",
        description="curvature, symmetry classification and canonical forms "
                    "for Brinkmann-chart metrics")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, schema: bool):
        p.add_argument("--out", help="write output to a file instead of stdout")
        if schema:
            p.add_argument("--schema", choices=("json", "csv"), default="json")

    p = sub.add_parser("check", help="classify symmetry order and run all checks")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=classify.DEFAULT_TOL)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--depth", type=int, choices=(1, 2), default=2)
    common(p, schema=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="emit .metric text for a named family")
    p.add_argument("kind", choices=("cw", "product"))
    p.add_argument("--dimension", "-d", type=int, default=4)
    p.add_argument("--order", "-r", type=int, default=1)
    p.add_argument("--P", action="append", metavar="LEVEL='ROWS'",
                   help="coefficient matrix, e.g. --P 1='1 0; 0 0'")
    p.add_argument("--base", help="base .metric file for product generation")
    p.add_argument("--block", action="append", choices=("sphere", "hyperbolic", "euclidean"))
    p.add_argument("--radius", type=float, default=1.0)
    common(p, schema=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle-diff", help="engine vs brute-force oracle deviations")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--depth", type=int, choices=(1, 2), default=2)
    p.add_argument("--tol", type=float, default=ORACLE_DIFF_TOL)
    common(p, schema=True)
    p.set_defaults(func=cmd_oracle_diff)

    p = sub.add_parser("canonicalize", help="reconstruct the canonical plane-wave form")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--u-min", type=float, default=None)
    p.add_argument("--u-max", type=float, default=None)
    common(p, schema=True)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser(
        "transport", help="transport experiments, CSV output",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "CSV columns per experiment:\n"
            "  geodesic: tau, coordinates (u, v, x2..), velocities (du, dv, dx2..),\n"
            "            energy g(gamma', gamma'), k_pairing g(K, gamma')\n"
            "  nullsec:  tau, K (null sectional curvature along the geodesic);\n"
            "            a trailing '# max_second_difference,<value>' row reports\n"
            "            the affine-growth residual\n"
            "  d0:       u, components of each transversely transported leaf\n"
            "            basis vector (X<vec>_<coordinate>)\n\n"
            "Runs stay in the metric's [box]: a start point outside it, or a node\n"
            "or RK4 stage past an edge by more than the rounding of --steps steps\n"
            "(steps * eps * max(|lo|, |hi|)), is refused before any row is printed.\n"))
    p.add_argument("file")
    p.add_argument("--experiment", choices=("geodesic", "nullsec", "d0"),
                   default="geodesic")
    p.add_argument("--span", type=float, default=None,
                   help="tau span (geodesic, nullsec) or u span (d0); defaults to the "
                        "distance from the start point's u to the box's upper u edge")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--point", type=float, nargs="+", default=None,
                   help="u x2 x3 ... inside the box (defaults to the box center)")
    p.add_argument("--leaf-part", type=float, nargs="+", default=None,
                   help="the m = n - 2 leaf components of the initial null velocity "
                        "(geodesic, nullsec)")
    common(p, schema=False)
    p.set_defaults(func=cmd_transport)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
