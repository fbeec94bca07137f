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

Each subparser binds its runner as ``run`` (the two scans also their
ScanMode as ``mode``), and main calls ``args.run(args)``.  A ValueError
from a runner, or the sieve's ResourceLimitError for an x above its cap,
is a usage error (exit 2); any other EulerProductError, and an ``--out``
that cannot be written, exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from .errors import DomainError, EulerProductError, ResourceLimitError
from .experiments import ScanMode, ScanRow, ScanSpec, error_decay, evaluate, scan
from .primes import sieve
from .product import ProductVariant, mertens_ratio
from .specfun import BranchSide, e1

CSV_HEADER = "sigma,t,x,re_value,im_value,re_ref,im_ref,abs_err,rel_err,flags"


def _fmt(value) -> str:
    # .17g prints an int below 2^53, such as x, exactly as str does.
    return "" if value is None else f"{value:.17g}"


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
    and log x > 0.  The sieve refuses an x above its cap (see main)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, variant=True) -> None:
    if variant:
        parser.add_argument(
            "--variant",
            choices=sorted(v.value for v in ProductVariant),
            default=ProductVariant.ZETA.value,
            help="product shape: zeta, inverse-zeta or ratio (zeta(2s)/zeta(s))",
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
    p.set_defaults(run=_run_eval)

    p = sub.add_parser("scan-real", help="scan real s between s-min and s-max")
    p.add_argument("--s-min", type=_finite_float, required=True)
    p.add_argument("--s-max", type=_finite_float, required=True)
    p.add_argument("--step", type=_finite_float, required=True)
    p.add_argument("--x", type=_truncation, default=1000)
    _add_common(p)
    p.set_defaults(run=_run_scan, mode=ScanMode.REAL_AXIS)

    p = sub.add_parser("scan-line", help="scan up the vertical line Re(s) = sigma")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, default=0.0, help="start of the t range")
    p.add_argument("--t-max", type=_finite_float, required=True)
    p.add_argument("--step", type=_finite_float, required=True)
    p.add_argument("--x", type=_truncation, default=1000)
    _add_common(p)
    p.set_defaults(run=_run_scan, mode=ScanMode.VERTICAL_LINE)

    p = sub.add_parser("mertens", help="ratio of the s = 1 product to e^gamma log x")
    p.add_argument("--x", type=_truncation, default=1000)
    _add_common(p, variant=False)
    p.set_defaults(run=_run_mertens)

    p = sub.add_parser("decay", help="fit the error-decay exponent across truncations")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, default=5.0, help="imaginary part of s")
    p.add_argument(
        "--x-grid",
        default="1000,10000,100000,1000000",
        help="comma-separated ascending truncation limits",
    )
    _add_common(p)
    p.set_defaults(run=_run_decay)

    p = sub.add_parser("e1", help="evaluate the exponential integral E1 at one point")
    p.add_argument("--re", type=_finite_float, required=True)
    p.add_argument("--im", type=_finite_float, default=0.0)
    # Only E1 itself takes a side of its cut: a product exponentiates E1, so
    # the cut's 2 pi i jump cancels there.
    p.add_argument(
        "--cut",
        choices=sorted(side.value for side in BranchSide),
        default=BranchSide.FROM_ABOVE.value,
        help="side of the branch cut used for on-cut E1 arguments",
    )
    _add_common(p, variant=False)
    p.set_defaults(run=_run_e1)

    return parser


def _run_eval(args) -> list[ScanRow]:
    s = complex(args.sigma, args.t)
    return [evaluate(s, sieve(args.x), ProductVariant(args.variant))]


def _run_scan(args) -> list[ScanRow]:
    if args.mode is ScanMode.REAL_AXIS:
        bounds = dict(s_min=args.s_min, s_max=args.s_max)
    else:
        bounds = dict(sigma=args.sigma, t_min=args.t, t_max=args.t_max)
    variant = ProductVariant(args.variant)
    spec = ScanSpec(mode=args.mode, x=args.x, step=args.step, variant=variant, **bounds)
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
    try:
        fit = error_decay(s, x_grid, ProductVariant(args.variant))
    except DomainError as exc:
        if args.sigma > 0.5:  # a numerical failure, such as E1 of an infinity
            raise
        # Re(s) <= 1/2, refused before any sieving like a bad grid.
        raise ValueError(str(exc)) from None
    print(
        f"decay fit: slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
        f"target={0.5 - args.sigma:.6f} points={len(fit.x_grid)}",
        file=sys.stderr,
    )
    return list(fit.rows)


def _run_e1(args) -> list[ScanRow]:
    result = e1(complex(args.re, args.im), BranchSide(args.cut))
    flags = ("on-cut",) if result.on_cut else ()
    return [ScanRow(args.re, args.im, None, result.value, None, None, None, flags)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows = args.run(args)
    except (ValueError, ResourceLimitError) as exc:
        # Bad flag combinations (empty ranges, unparsable grids, x above the
        # sieve's cap) are usage errors; numerical failures exit 1 below.
        print(f"eulerprod: usage error: {exc}", file=sys.stderr)
        return 2
    except EulerProductError as exc:
        print(f"eulerprod: error: {exc}", file=sys.stderr)
        return 1
    text = "\n".join([CSV_HEADER, *map(_row_line, rows)]) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"eulerprod: error: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
