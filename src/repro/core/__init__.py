"""The paper's core contribution: PPW-driven workload and DVFS scheduling."""

from repro.core.dvfs import DVFSScheduler
from repro.core.ppw import ppw
from repro.core.scheduler import ScheduleDecision, WorkloadScheduler

__all__ = [
    "DVFSScheduler",
    "ScheduleDecision",
    "WorkloadScheduler",
    "ppw",
]
