"""Command-line front end emitting CSV scans of corrected Euler products.

Every subcommand returns eulerprod.experiments.ScanRow objects, and one
formatter writes them in the same schema so downstream plotting stays
uniform:

    sigma,t,x,re_value,im_value,re_ref,im_ref,abs_err,rel_err,flags

Values carry 17 significant digits (exact double round-trip), lines end in
LF, and identical invocations produce byte-identical output on the same
machine and numpy build (real-axis values use numpy's SIMD exp, see
eulerprod.product).  Inapplicable cells are left empty.  The ``flags``
cell joins markers with ';': ``outside-domain`` and ``on-cut`` qualify a
value, ``error:<Type>`` marks a grid point whose evaluation failed.

Every product value comes from eulerprod.experiments.evaluate, at
correction order 2: the paper's E1 factor plus the prime-square term on
1/2 < Re(s) < 1 (see eulerprod.product and EXPERIMENT_ORDER there).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from .errors import EulerProductError
from .experiments import ScanMode, ScanRow, ScanSpec, error_decay, evaluate, scan
from .primes import sieve
from .product import ProductVariant, mertens_ratio
from .specfun import BranchSide, e1

CSV_HEADER = "sigma,t,x,re_value,im_value,re_ref,im_ref,abs_err,rel_err,flags"

_VARIANTS = {v.value: v for v in ProductVariant}
_CUTS = {"above": BranchSide.FROM_ABOVE, "below": BranchSide.FROM_BELOW}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def _row_line(row: ScanRow) -> str:
    value, reference = row.value, row.reference
    cells = [
        row.sigma,
        row.t,
        row.x,
        value.real if value is not None else None,
        value.imag if value is not None else None,
        reference.real if reference is not None else None,
        reference.imag if reference is not None else None,
        row.abs_err,
        row.rel_err,
    ]
    return ",".join([*map(_fmt, cells), ";".join(row.flags)])


def _finite_float(text: str) -> float:
    """argparse type for float flags: nan and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _truncation(text: str) -> int:
    """argparse type for --x: an integer of at least 2, so p <= x has a prime
    and log x > 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, variant=True, cut=True) -> None:
    if variant:
        parser.add_argument(
            "--variant",
            choices=sorted(_VARIANTS),
            default=ProductVariant.ZETA.value,
            help="product shape: zeta, inverse-zeta or ratio (zeta(2s)/zeta(s))",
        )
    if cut:
        parser.add_argument(
            "--cut",
            choices=sorted(_CUTS),
            default="above",
            help="side of the branch cut used for on-cut E1 arguments",
        )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerprod",
        description=(
            "Evaluate truncated Euler prime products with an exponential-"
            "integral correction and compare them against the zeta function."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the corrected product at one point")
    p.add_argument("--sigma", type=_finite_float, required=True, help="real part of s")
    p.add_argument("--t", type=_finite_float, default=0.0, help="imaginary part of s")
    p.add_argument(
        "--x", type=_truncation, default=1000, help="truncation limit (primes <= x)"
    )
    _add_common(p)

    p = sub.add_parser("scan-real", help="scan real s between s-min and s-max")
    p.add_argument("--s-min", type=_finite_float, required=True)
    p.add_argument("--s-max", type=_finite_float, required=True)
    p.add_argument("--step", type=_finite_float, required=True)
    p.add_argument("--x", type=_truncation, default=1000)
    _add_common(p)

    p = sub.add_parser("scan-line", help="scan up the vertical line Re(s) = sigma")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, default=0.0, help="start of the t range")
    p.add_argument("--t-max", type=_finite_float, required=True)
    p.add_argument("--step", type=_finite_float, required=True)
    p.add_argument("--x", type=_truncation, default=1000)
    _add_common(p)

    p = sub.add_parser("mertens", help="ratio of the s = 1 product to e^gamma log x")
    p.add_argument("--x", type=_truncation, default=1000)
    _add_common(p, variant=False, cut=False)

    p = sub.add_parser("decay", help="fit the error-decay exponent across truncations")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, default=5.0, help="imaginary part of s")
    p.add_argument(
        "--x-grid",
        default="1000,10000,100000,1000000",
        help="comma-separated ascending truncation limits",
    )
    _add_common(p)

    p = sub.add_parser("e1", help="evaluate the exponential integral E1 at one point")
    p.add_argument("--re", type=_finite_float, required=True)
    p.add_argument("--im", type=_finite_float, default=0.0)
    _add_common(p, variant=False)

    return parser


def _run_eval(args) -> list[ScanRow]:
    s = complex(args.sigma, args.t)
    return [evaluate(s, sieve(args.x), _VARIANTS[args.variant], _CUTS[args.cut])]


def _run_scan_real(args) -> list[ScanRow]:
    spec = ScanSpec(
        mode=ScanMode.REAL_AXIS,
        x=args.x,
        step=args.step,
        variant=_VARIANTS[args.variant],
        cut=_CUTS[args.cut],
        s_min=args.s_min,
        s_max=args.s_max,
    )
    return scan(spec, sieve(args.x))


def _run_scan_line(args) -> list[ScanRow]:
    spec = ScanSpec(
        mode=ScanMode.VERTICAL_LINE,
        x=args.x,
        step=args.step,
        variant=_VARIANTS[args.variant],
        cut=_CUTS[args.cut],
        sigma=args.sigma,
        t_min=args.t,
        t_max=args.t_max,
    )
    return scan(spec, sieve(args.x))


def _run_mertens(args) -> list[ScanRow]:
    ratio = mertens_ratio(sieve(args.x))
    dev = abs(ratio - 1.0)
    return [ScanRow(1.0, 0.0, args.x, complex(ratio), complex(1.0), dev, dev, ())]


def _run_decay(args) -> list[ScanRow]:
    try:
        x_grid = [int(part) for part in args.x_grid.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"could not parse --x-grid {args.x_grid!r}") from None
    s = complex(args.sigma, args.t)
    fit = error_decay(s, x_grid, _VARIANTS[args.variant], cut=_CUTS[args.cut])
    print(
        f"decay fit: slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
        f"target={0.5 - args.sigma:.6f} points={len(fit.x_grid)}",
        file=sys.stderr,
    )
    return list(fit.rows)


def _run_e1(args) -> list[ScanRow]:
    result = e1(complex(args.re, args.im), _CUTS[args.cut])
    flags = ("on-cut",) if result.on_cut else ()
    return [ScanRow(args.re, args.im, None, result.value, None, None, None, flags)]


_RUNNERS = {
    "eval": _run_eval,
    "scan-real": _run_scan_real,
    "scan-line": _run_scan_line,
    "mertens": _run_mertens,
    "decay": _run_decay,
    "e1": _run_e1,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = _RUNNERS[args.command](args)
    except ValueError as exc:
        # Bad flag combinations (empty ranges, unparsable grids) are usage
        # errors; numerical failures exit 1 below.
        print(f"eulerprod: usage error: {exc}", file=sys.stderr)
        return 2
    except EulerProductError as exc:
        print(f"eulerprod: error: {exc}", file=sys.stderr)
        return 1
    text = "\n".join([CSV_HEADER, *map(_row_line, rows)]) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
