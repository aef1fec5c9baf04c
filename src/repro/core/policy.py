"""Migration-queue ordering policies (paper Sections III-A1, IV-C5, IV-E).

Three built-in policies:

* :class:`SmallestJobFirst` — the paper's choice;
* :class:`FifoOrder` — the IV-C5 ablation baseline;
* :class:`BenefitAware` — the extension the paper sketches in Section
  IV-E: "A migration scheme that can infer the Ignem speed-up curve for
  different jobs can potentially use this information to prioritize jobs
  which will benefit more."

Policies are selected *by name*: :data:`POLICIES` maps each name to its
class, and :func:`make_policy` instantiates one.  ``IgnemConfig``
validates its ``policy`` field against the same map.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..storage.device import MB
from .commands import MigrationWorkItem

#: Input bytes :class:`BenefitAware` expects a job's lead-time to
#: migrate: a job this size or smaller gets the full speed-up.
EXPECTED_LEAD_BYTES = 512 * MB


class MigrationPolicy:
    """Orders the per-slave migration queue; lower keys migrate first."""

    name = "abstract"

    def __init__(self, reverse_within_job: bool = True):
        #: Migrate each job's blocks tail-first (see MigrationWorkItem).
        self.reverse_within_job = reverse_within_job

    def priority(self, item: MigrationWorkItem) -> Tuple:
        raise NotImplementedError

    def _within_job(self, item: MigrationWorkItem) -> int:
        if self.reverse_within_job:
            return -item.order_hint
        return item.order_hint


class SmallestJobFirst(MigrationPolicy):
    """The paper's policy: prioritize blocks of jobs with smaller inputs.

    Improves more jobs per byte migrated and raises the chance of fully
    migrating a job's input within its lead-time.  Ties broken by job
    submission time (III-A1), then within-job block order, then arrival.
    """

    name = "smallest-job-first"

    def priority(self, item: MigrationWorkItem) -> Tuple:
        return (
            item.job_input_bytes,
            item.job_submitted_at,
            self._within_job(item),
            item.seq,
        )


class FifoOrder(MigrationPolicy):
    """The natural strategy the paper ablates against: job arrival order."""

    name = "fifo"

    def priority(self, item: MigrationWorkItem) -> Tuple:
        return (item.job_submitted_at, self._within_job(item), item.seq)


class BenefitAware(MigrationPolicy):
    """Prioritize by expected speed-up per migrated byte (paper IV-E).

    The wordcount sweep (Fig 8) shows the per-job speed-up curve: jobs
    whose whole input fits in the lead-time get the full benefit; beyond
    that the marginal benefit of each migrated byte decays as it becomes
    a smaller fraction of the input.  This policy scores each block by
    the fraction of its job's input that is expected to migrate in time
    (``EXPECTED_LEAD_BYTES / job_input_bytes``, saturated at 1) and
    migrates higher-benefit jobs first.

    Among jobs larger than :data:`EXPECTED_LEAD_BYTES` this orders like
    smallest-job-first; among smaller ones, like submission-order FIFO.
    """

    name = "benefit-aware"

    def benefit(self, item: MigrationWorkItem) -> float:
        if item.job_input_bytes <= 0:
            return 1.0
        return min(1.0, EXPECTED_LEAD_BYTES / item.job_input_bytes)

    def priority(self, item: MigrationWorkItem) -> Tuple:
        return (
            -self.benefit(item),
            item.job_submitted_at,
            self._within_job(item),
            item.seq,
        )


#: The built-in policies, keyed by name.
POLICIES: Dict[str, Type[MigrationPolicy]] = {
    cls.name: cls for cls in (SmallestJobFirst, FifoOrder, BenefitAware)
}


def make_policy(name: str, reverse_within_job: bool = True) -> MigrationPolicy:
    cls = POLICIES.get(name)
    if cls is None:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown migration policy {name!r} (known: {known})")
    return cls(reverse_within_job)
