"""Deterministic fault injection and invariant checking.

Seeded fault sweeps (``python -m repro chaos``) and the scripted heal
demo run through the DST harness (:mod:`repro.dst`).
"""

from .injector import FaultInjector
from .invariants import (
    InvariantChecker,
    data_loss_violations,
    replication_violations,
)
from .schedule import FAULT_KINDS, FaultEvent, FaultSchedule

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "InvariantChecker",
    "data_loss_violations",
    "replication_violations",
]
