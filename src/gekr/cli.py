"""Command-line surface.

Exit codes: 0 success / property holds; 1 property fails or the
construction gave up; 2 usage, domain, parse or file errors; 141 stdout
closed before the output was written (128 + SIGPIPE, as a shell reports
for `yes | head -1`).  Commands raise ValueError or OSError and main
alone turns it into the usage line and `gekr: error: <cause>`, exit 2.
Magnitudes are printed in both rendered ("2.26e289") and raw log10 forms
because the interesting values overflow every native float format.

Each command imports the modules it runs, so that `gekr bound` loads only
core, bounds and this module: most calls print one bound, and start-up,
which compiles every module imported, is most of their time.  For the
same reason only `construct` imports dataclasses (and, through it,
inspect); the records of every other command are core.Record classes.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import TextIO

from .core import (
    GEKR, DeficiencyReport, ModelParams, PatternSet, Strategy, parse_alpha, parse_array, render_magnitude
)


def _split_tokens(text: str) -> list[str]:
    return [tok for tok in (t.strip() for t in text.split(",")) if tok]


def _parse_n(token: str) -> int:
    """Column count (the type of every --n): a whole number from 1 up to
    the largest float, so that every bound formula can take it.  Decimal
    reads "1e23" as exactly 10^23 and checks the range before int()
    expands the digits; float() first refuses what Python's number
    grammar does, such as misplaced underscores, which Decimal drops."""
    try:
        float(token)
        value = Decimal(token)
    except (ValueError, InvalidOperation):
        raise argparse.ArgumentTypeError(f"bad column count {token!r}") from None
    if not (value.is_finite() and 1 <= value <= sys.float_info.max and value == value.to_integral_value()):
        raise argparse.ArgumentTypeError(f"column count {token!r}: need n >= 1, whole, <= 1.8e308")
    return int(value)


def _parse_ns(text: str) -> list[int]:
    return [_parse_n(tok) for tok in _split_tokens(text)]


def _resolve_alpha(args: argparse.Namespace) -> Fraction:
    """Density from --alpha or --k/--n, validated by parse_alpha."""
    if args.alpha is not None and args.k is not None:
        raise ValueError("give either --alpha or --k, not both")
    if args.alpha is not None:
        return parse_alpha(args.alpha)
    if args.k is not None:
        return parse_alpha(f"{args.k}/{args.n}")
    raise ValueError("one of --alpha or --k is required")


def cmd_bound(args: argparse.Namespace) -> int:
    from . import bounds

    alpha = _resolve_alpha(args)
    value = bounds.row_bound(args.model, alpha, args.n)
    mantissa, exponent = value.scientific()
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "model": args.model,
                    "alpha": float(alpha),
                    "n": args.n,
                    "log10": value.log10,
                    "mantissa": mantissa,
                    "exponent": exponent,
                }
            )
        )
    else:
        print(render_magnitude(value))
        print(f"log10 = {value.log10:.9f}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from . import bounds

    alpha_tokens = (
        _split_tokens(args.alphas) if args.alphas is not None
        else list(bounds.TABLE_ALPHAS[args.model])
    )
    ns = args.ns if args.ns is not None else list(bounds.TABLE_NS)
    if not alpha_tokens:
        raise ValueError("alpha grid is empty")
    if not ns:
        raise ValueError("n grid is empty")
    grid = [(tok, parse_alpha(tok)) for tok in alpha_tokens]

    print("alpha,n,log10_m,rendered")
    for tok, alpha in grid:
        for n in ns:
            value = bounds.row_bound(args.model, alpha, n)
            print(f"{tok},{n},{value.log10:.9f},{render_magnitude(value)}")
    return 0


def _read_rows(path: str, stream: TextIO, patterns: PatternSet) -> tuple[str, int]:
    """The text of stream, read line by line, and its number of row
    lines; a ValueError once it passes verify.MAX_BLOCK_BYTES, as each
    line read is capped at what is left of that limit.  The row lines,
    neither blank nor comments, are counted as they come, and the first
    past what the scan takes at the first row's width is a ValueError
    too, before the rest is read or any row parsed."""
    from . import verify

    limit = verify.MAX_BLOCK_BYTES
    lines: list[str] = []
    size = m = n = 0
    while line := stream.readline(limit + 1 - size):
        if (size := size + len(line)) > limit:
            raise ValueError(f"{path}: input passes the limit of {limit} bytes")
        lines.append(line)
        if (row := line.strip()) and not row.startswith("#"):
            m += 1
            n = n or len(row)
            try:
                verify.scan_bytes(m, n, patterns)
            except ValueError as exc:
                raise ValueError(f"{path}: the first {exc}") from None
    return "".join(lines), m


def cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import verify

    if args.workers is not None and args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    patterns = GEKR if args.patterns is None else PatternSet.from_text(args.patterns)
    # An input past the scan's own byte limit is refused before it is
    # read: a file by its size, stdin once that many bytes have come.
    limit = verify.MAX_BLOCK_BYTES
    if args.path == "-":
        text, m = _read_rows(args.path, sys.stdin, patterns)
    elif Path(args.path).stat().st_size > limit:
        raise ValueError(f"{args.path}: input passes the limit of {limit} bytes")
    else:
        with open(args.path) as stream:
            text, m = _read_rows(args.path, stream, patterns)
    # An input of no row lines, such as `construct --m 0` prints, is the
    # array of no rows, which has no triple to be deficient.
    report = verify.find_deficient(parse_array(text), patterns) if m else DeficiencyReport((), (), 0)
    if report.ok:
        print(f"ok: all {report.total_checked} triples covered")
        return 0
    print(
        f"deficient: {report.deficient_count} of {report.total_checked} triples"
    )
    if args.list_deficient:
        # One write, not one per line: the listing can run to millions of lines.
        lines = []
        for (i, j, l), missing in zip(report.deficient, report.missing):
            gaps = ",".join("".join(map(str, pat)) for pat in sorted(missing))
            lines.append(f"{i} {j} {l} missing={gaps}")
        print("\n".join(lines))
    return 1


def cmd_construct(args: argparse.Namespace) -> int:
    import logging
    from pathlib import Path

    from . import construct

    alpha = _resolve_alpha(args)
    if args.model == "independent":
        params = ModelParams.independent(alpha, args.n)
    elif (alpha * args.n).denominator == 1:
        params = ModelParams.fixed_weight(args.n, int(alpha * args.n))
    else:
        raise ValueError(f"fixed-weight model needs an integer weight: alpha*n = {alpha}*{args.n}")
    config = construct.ConstructionConfig(
        params=params,
        m=args.m,
        seed=args.seed,
        strategy=Strategy(args.strategy),
        max_resamples=args.max_resamples,
        attempts_per_row=args.attempts_per_row,
    )
    # Progress records go to the "gekr" logger at INFO; show them here.
    log = logging.getLogger("gekr")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        result = construct.run(config)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    if not result.success:
        print(
            f"construction failed after {result.resamples_used} resamples",
            file=sys.stderr,
        )
        return 1
    assert result.array is not None
    text = result.array.to_text()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from . import bounds, optimize

    if args.model == "independent":
        alpha_star, p_star = optimize.argmin_independent(args.n)
        print(f"alpha_star = {alpha_star:.6f}")
        print(f"p = {render_magnitude(p_star)}")
        print(f"log10 p = {p_star.log10:.9f}")
        value = bounds.zeta(alpha_star, args.n)
        print(f"bound = {render_magnitude(value)}")
        print(f"log10 bound = {value.log10:.9f}")
    else:
        alpha_star, mu_star = optimize.argmin_mu()
        print(f"alpha_star = {alpha_star:.6f}")
        print(f"mu_star = {mu_star:.9f}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from . import optimize

    table = optimize.figure_data(args.figure, grid_step=args.grid_step)
    print(",".join(table.columns))
    for row in table.rows:
        print(",".join("" if cell is None else repr(cell) for cell in row))
    return 0


def cmd_maxfamily(args: argparse.Namespace) -> int:
    from . import exact

    result = exact.max_family(args.n, args.k, node_limit=args.node_limit)
    print(f"size: {result.size}")
    print(f"optimal: {'true' if result.optimal else 'false'}")
    print(f"nodes: {result.nodes}", file=sys.stderr)
    matrix = exact.witness_matrix(args.n, result.witness)
    sys.stdout.write(matrix.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gekr",
        description=(
            "Row-count bounds, verification, and randomized construction of "
            "binary arrays where every three rows cover the patterns 011, "
            "101, 110, 111 across their columns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate one row-count bound")
    p_bound.set_defaults(handler=cmd_bound)
    p_bound.add_argument(
        "--model",
        required=True,
        choices=["independent", "fixed-asymptotic", "fixed-exact"],
    )
    p_bound.add_argument("--alpha", help="density as decimal or fraction, e.g. 2/3")
    p_bound.add_argument("--k", type=int, help="row weight (fixed-weight models)")
    p_bound.add_argument("--n", type=_parse_n, required=True, help="column count")
    p_bound.add_argument("--json", action="store_true")

    p_table = sub.add_parser("table", help="bound table over an alpha x n grid")
    p_table.set_defaults(handler=cmd_table)
    p_table.add_argument(
        "--model", required=True, choices=["independent", "fixed-asymptotic"]
    )
    p_table.add_argument("--alphas", help="comma-separated densities")
    p_table.add_argument("--ns", type=_parse_ns, help="comma-separated column counts")

    p_verify = sub.add_parser("verify", help="check an array file ('-' = stdin)")
    p_verify.set_defaults(handler=cmd_verify)
    p_verify.add_argument("path")
    p_verify.add_argument("--patterns", help="comma-separated triples, e.g. 011,111")
    p_verify.add_argument("--list-deficient", action="store_true")
    p_verify.add_argument("--workers", type=int, help="ignored (at least 1): one process scans")

    p_construct = sub.add_parser("construct", help="build an array by resampling")
    p_construct.set_defaults(handler=cmd_construct)
    p_construct.add_argument(
        "--model", default="fixed", choices=["independent", "fixed"]
    )
    p_construct.add_argument("--alpha", help="density as decimal or fraction")
    p_construct.add_argument("--k", type=int, help="row weight (fixed model)")
    p_construct.add_argument("--n", type=_parse_n, required=True)
    p_construct.add_argument("--m", type=int, help="target row count")
    p_construct.add_argument("--seed", type=int, default=0)
    p_construct.add_argument(
        "--strategy",
        default="moser-tardos",
        choices=[s.value for s in Strategy],
    )
    p_construct.add_argument("--max-resamples", type=int, default=1_000_000)
    p_construct.add_argument("--attempts-per-row", type=int, default=1_000)
    p_construct.add_argument("--output", help="write the array here instead of stdout")

    p_optimize = sub.add_parser("optimize", help="best density for a model")
    p_optimize.set_defaults(handler=cmd_optimize)
    p_optimize.add_argument(
        "--model", required=True, choices=["independent", "fixed"]
    )
    p_optimize.add_argument("--n", type=_parse_n, default=10_000)

    p_figure = sub.add_parser("figure", help="CSV data behind a reference figure")
    p_figure.set_defaults(handler=cmd_figure)
    p_figure.add_argument("figure", type=int, choices=[1, 2, 3, 4])
    p_figure.add_argument("--grid-step", type=float, default=0.005, help="from 1e-4 to 0.1")

    p_max = sub.add_parser("maxfamily", help="exact largest GEKR family")
    p_max.set_defaults(handler=cmd_maxfamily)
    p_max.add_argument("--n", type=_parse_n, required=True)
    p_max.add_argument("--k", type=int, required=True)
    p_max.add_argument("--node-limit", type=int, default=5_000_000)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (`gekr figure 3 | head -1`).  stdout goes
        # to devnull, so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # bad input, domain or file: exit 2
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
