"""Traced-run mechanics: in-memory spans and a profile folded by module.

Spans are recorded by the benchmark around its calls into each layer's
public entry point; nothing inside the program is instrumented.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
import pstats
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from perfbench.layers import OTHER, layer_of_module

BENCH = "bench"


class SpanLog:
    """Spans kept in memory as ``(request, name, parent, start_ns, end_ns)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str | None, int, int]] = []

    def call(self, request: int, name: str, parent: str, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        start = perf_counter_ns()
        out = fn(*args)
        self.spans.append((request, name, parent, start, perf_counter_ns()))
        return out

    def add(self, request: int, name: str, parent: str | None, start: int, end: int) -> None:
        """Record a span timed by the caller."""
        self.spans.append((request, name, parent, start, end))

    def self_ns(self, first_request: int, factors: list[float]) -> dict[str, float]:
        """Total self time per span name over requests >= ``first_request``,
        each span's duration scaled by ``factors[request]``."""
        total: dict[str, float] = defaultdict(float)
        for request, name, parent, start, end in self.spans:
            if request < first_request:
                continue
            duration = (end - start) * factors[request]
            total[name] += duration
            if parent is not None:
                total[parent] -= duration
        return dict(total)

    def rows(self) -> list[dict]:
        return [
            {"req": r, "span": n, "parent": p, "start_ns": s, "end_ns": e}
            for r, n, p, s, e in self.spans
        ]


def direct_call(request: int, name: str, parent: str, fn, *args):
    """The untraced stand-in for :meth:`SpanLog.call`."""
    return fn(*args)


class ParserSpans:
    """Wraps a feed handler's parser so decoding nests in its span."""

    def __init__(self, parser, spans: SpanLog, parent: str) -> None:
        self._parser = parser
        self._spans = spans
        self._parent = parent
        self.request = 0

    def parse_frame(self, frame: bytes):
        return self._spans.call(
            self.request, "protocol", self._parent, self._parser.parse_frame, frame
        )


def _module_of(filename: str, src: Path, bench: Path) -> str | None:
    """Dotted module of a profiled file, ``bench`` for the benchmark's own
    files, ``None`` for everything else (stdlib, numpy, builtins)."""
    if filename.startswith("~") or filename.startswith("<"):
        return None
    path = Path(filename)
    for root, prefix in ((src, None), (bench, BENCH)):
        try:
            rel = path.relative_to(root)
        except ValueError:
            continue
        if prefix is not None:
            return prefix
        return ".".join(rel.with_suffix("").parts)
    return None


def fold_profile(
    profile, src: Path, bench: Path
) -> tuple[dict[str, float], dict[str, int]]:
    """Fold a profile's self time into layers; count calls into each layer.

    Self time of code outside the package (builtins, numpy, stdlib) goes
    to the layers that called it, split by how much of it each caller
    caused, so a layer's share covers the library work it asked for.
    Returns ``(seconds per layer, calls into each layer from outside it)``.
    """
    stats = pstats.Stats(profile).stats
    own: dict = {}
    for func in stats:
        module = _module_of(func[0], src, bench)
        if module is None:
            own[func] = None
        elif module == BENCH:
            own[func] = BENCH
        else:
            own[func] = layer_of_module(module)
    shares: dict = {}

    def share(func, visiting: set) -> dict[str, float]:
        if own[func] is not None:
            return {own[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4]
        weight = sum(entry[2] for entry in callers.values())
        if not callers or func in visiting:
            return {OTHER: 1.0}
        visiting.add(func)
        out: dict[str, float] = defaultdict(float)
        for caller, entry in callers.items():
            w = entry[2] / weight if weight > 0 else 1.0 / len(callers)
            for layer, fraction in share(caller, visiting).items():
                out[layer] += w * fraction
        visiting.discard(func)
        shares[func] = dict(out)
        return shares[func]

    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for func, (__, __, tottime, __, callers) in stats.items():
        for layer, fraction in share(func, set()).items():
            seconds[layer] += tottime * fraction
        layer = own[func]
        if layer is not None and layer not in (BENCH, OTHER):
            for caller, entry in callers.items():
                if own.get(caller) != layer:
                    calls[layer] += entry[0]
    return dict(seconds), dict(calls)


def write_spans(path: Path, rows: list[dict]) -> None:
    """Write span rows as JSON lines (outside the timed phase)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for row in rows:
            out.write(json.dumps(row, allow_nan=False, separators=(",", ":")))
            out.write("\n")
