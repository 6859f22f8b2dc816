#!/usr/bin/env python3
"""Compare what greedy row-extension actually achieves against the
probabilistic row floor, for a few fixed-weight parameter pairs.

For each (n, k): compute the exact-sum LLL floor, confirm Moser-Tardos
builds an array of exactly that many rows, then let the greedy extender
run and report how far past the floor it gets.  Where C(n, k) is within
the exact search's candidate ceiling, the exact maximum family size is
printed beside them (with a trailing "?" if the search ran out of nodes
before proving it), and "-" elsewhere."""

from __future__ import annotations

import argparse
from fractions import Fraction
from math import comb

from gekr.bounds import floor_rows, nu
from gekr.construct import ConstructionConfig, Strategy, greedy_extend, moser_tardos
from gekr.core import ModelParams
from gekr.exact import MAX_FAMILY_CANDIDATES, max_family
from gekr.verify import is_gekr

DEFAULT_CASES = ((20, 14), (30, 20), (40, 28))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--attempts-per-row", type=int, default=500)
    parser.add_argument(
        "--case",
        action="append",
        metavar="N,K",
        help="fixed-weight pair, repeatable (default: a built-in list)",
    )
    args = parser.parse_args()
    cases = (
        tuple(tuple(map(int, c.split(","))) for c in args.case)
        if args.case
        else DEFAULT_CASES
    )

    print(
        f"{'n':>4} {'k':>4} {'lll_floor':>10} {'mt_resamples':>13} {'greedy_rows':>12}"
        f" {'exact_max':>10}"
    )
    for n, k in cases:
        params = ModelParams.fixed_weight(n=n, r=k)
        floor = floor_rows(nu(Fraction(k, n), n, mode="exact-sum"))
        config = ConstructionConfig(
            params=params, m=floor, seed=args.seed, strategy=Strategy.MOSER_TARDOS
        )
        result = moser_tardos(config)
        assert result.success and is_gekr(result.array)
        greedy = greedy_extend(
            params, seed=args.seed, attempts_per_row=args.attempts_per_row
        )
        assert is_gekr(greedy)
        exact = "-"
        if comb(n, k) <= MAX_FAMILY_CANDIDATES:
            family = max_family(n, k)
            exact = f"{family.size}{'' if family.optimal else '?'}"
        print(
            f"{n:>4} {k:>4} {floor:>10} {result.resamples_used:>13} {greedy.m:>12}"
            f" {exact:>10}"
        )


if __name__ == "__main__":
    main()
