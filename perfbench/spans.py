"""Spans recorded by wrapping the program's public entry points.

The wrappers replace module attributes, so they see exactly the calls
that go through those names: `gekr.construct.first_deficient_triple` is
the name Moser-Tardos calls, `gekr.cli.parse_array` the name the verify
command calls.  Nothing inside src/ is changed.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

import checker


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: tuple[str, str]  # (workload, operation key)
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part covered by child spans, which run one
        after another in this single thread and so never overlap."""
        return self.seconds - self.child_s


def _first_attrs(args, kwargs, bad) -> dict:
    m = len(args[0])
    return {"triples": comb(m, 3) if bad is None else checker.triple_rank(m, *bad) + 1}


def _targets():
    """(module, attribute, span name, attrs from (args, kwargs, result))."""
    from gekr import bounds, cli, construct, exact, optimize, verify

    return [
        (cli, "main", "cli.main", lambda a, kw, r: {"command": (a[0] if a else kw["argv"])[0]}),
        (cli, "parse_array", "core.parse", lambda a, kw, r: {"rows": r.m}),
        (verify, "find_deficient", "verify.find_deficient",
         lambda a, kw, r: {"triples": r.total_checked, "hits": r.deficient_count}),
        (construct, "first_deficient_triple", "verify.first", _first_attrs),
        (construct, "moser_tardos", "construct.mt",
         lambda a, kw, r: {"m": a[0].m, "steps": r.resamples_used}),
        (construct, "sample_rows", "construct.sample", lambda a, kw, r: {"rows": r.m}),
        (construct, "greedy_extend", "construct.greedy", lambda a, kw, r: {"rows": r.m}),
        (exact, "max_family", "exact.max_family",
         lambda a, kw, r: {"size": r.size, "optimal": r.optimal}),
        (bounds, "nu", "bounds.nu",
         lambda a, kw, r: {"n": a[1], "mode": kw.get("mode", a[2] if len(a) > 2 else "asymptotic")}),
        (bounds, "zeta", "bounds.zeta", None),
        (optimize, "argmin_mu", "optimize.argmin_mu", None),
        (optimize, "argmin_independent", "optimize.argmin_independent", None),
        (optimize, "figure_data", "optimize.figure_data", None),
    ]


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: tuple[str, str] = ("", "")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, attrs_of):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent, self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.seconds
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, attrs_of in _targets():
            fn = getattr(module, attr)
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs_of))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def select(self, name: str, workload: str | None = None, key: str | None = None):
        return [
            s for s in self.spans
            if s.name == name
            and (workload is None or s.op[0] == workload)
            and (key is None or s.op[1] == key)
        ]
