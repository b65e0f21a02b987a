"""Exception hierarchy for the LightTrader reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one ``except`` clause while still
distinguishing subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class OrderBookError(ReproError):
    """Invalid operation on a limit order book (bad side, unknown id...)."""


class MatchingError(OrderBookError):
    """The matching engine was asked to do something inconsistent."""


class ProtocolError(ReproError):
    """Malformed packet / message or codec misuse."""


class ChecksumError(ProtocolError):
    """A frame or message failed checksum validation."""


class ModelError(ReproError):
    """Invalid neural-network construction or shape mismatch."""


class CompileError(ReproError):
    """The CGRA compiler could not map a model onto the target grid."""


class AcceleratorError(ReproError):
    """Invalid accelerator operation (bad DVFS point, busy device...)."""


class SchedulingError(ReproError):
    """The scheduler was configured or driven inconsistently."""


class SimulationError(ReproError):
    """Discrete-event simulation misuse (time travel, double finish...)."""


class CalibrationError(ReproError):
    """Profile calibration failed to converge or was given bad targets."""
