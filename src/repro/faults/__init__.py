"""Deterministic fault injection and the replica-count checks.

Seeded fault sweeps (``python -m repro chaos``) and the scripted heal
demo run through the DST harness (:mod:`repro.dst`).
"""

from .injector import FaultInjector
from .invariants import data_loss_violations, replication_violations
from .schedule import FAULT_KINDS, FaultEvent, FaultSchedule

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "data_loss_violations",
    "replication_violations",
]
