#!/usr/bin/env python3
"""Print both lower-bound tables on the default alpha/n grid.

Rows are alpha values, columns are n; each cell is the rendered magnitude
of the bound (independent model first, then the fixed-weight model under
the asymptotic rate)."""

from __future__ import annotations

import argparse

from gekr.bounds import TABLE_ALPHAS, TABLE_NS, row_bound
from gekr.core import parse_alpha, render_magnitude

TITLES = {
    "independent": "Independent model",
    "fixed-asymptotic": "Fixed-weight model (asymptotic rate)",
}


def print_table(model: str) -> None:
    print(TITLES[model])
    header = ["alpha/n"] + [f"{n:,}" for n in TABLE_NS]
    widths = [8] + [14] * len(TABLE_NS)
    print("".join(cell.rjust(w) for cell, w in zip(header, widths)))
    for token in TABLE_ALPHAS[model]:
        alpha = parse_alpha(token)
        cells = [token] + [
            render_magnitude(row_bound(model, alpha, n)) for n in TABLE_NS
        ]
        print("".join(cell.rjust(w) for cell, w in zip(cells, widths)))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--model",
        choices=(*TITLES, "both"),
        default="both",
    )
    args = parser.parse_args()
    for model in TITLES:
        if args.model in (model, "both"):
            print_table(model)


if __name__ == "__main__":
    main()
