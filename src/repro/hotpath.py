"""Hot-path markers for the allocation-free event loop.

The fast back-test loop's per-event cost budget (see EXPERIMENTS.md
"Performance") depends on a handful of functions staying allocation-free:
no comprehensions, no ``dict()``/``list()``/``set()`` construction, no
f-strings, no unguarded logging.  Mark such a function with
:func:`hot_path` (a zero-cost passthrough) — or list it in
:data:`MANIFEST` when decorating is awkward — and rule RL004 in
:mod:`repro.lint` machine-checks the discipline on every run.

The marker is a contract, not an optimisation: decorating a function
changes nothing at runtime.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

__all__ = ["MANIFEST", "hot_path"]

_F = TypeVar("_F", bound=Callable[..., object])


def hot_path(func: _F) -> _F:
    """Mark ``func`` as hot-path code subject to RL004 hygiene checks."""
    func.__repro_hot_path__ = True  # type: ignore[attr-defined]
    return func


# Functions under the same contract, addressed as
# "<path suffix>::<qualified name>" for code where a decorator would be
# noise (e.g. methods whose class is re-exported and documented
# elsewhere).  repro.lint resolves these against the files it scans.
MANIFEST: frozenset[str] = frozenset(
    {
        "repro/telemetry/__init__.py::Telemetry.sample_power",
        "repro/telemetry/__init__.py::Telemetry.record_completion_light",
        "repro/sim/metrics.py::MetricsCollector.record_completion",
        "repro/sim/metrics.py::MetricsCollector.record_completion_ids",
        "repro/sim/metrics.py::MetricsCollector.record_drop",
        "repro/sim/metrics.py::MetricsCollector.record_drop_ids",
        "repro/sim/metrics.py::MetricsCollector.sample_power",
        "repro/lob/array_book.py::ArrayBook._rest",
        "repro/lob/array_book.py::ArrayBook._unlink",
        "repro/lob/array_matching.py::MatchingKernel.submit",
        "repro/lob/array_matching.py::MatchingKernel.cancel",
        "repro/lob/array_matching.py::MatchingKernel.replace",
    }
)
