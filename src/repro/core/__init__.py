"""Ignem: proactive upward migration of cold data (the paper's core).

The master (inside the NameNode) decides *what* migrates; slaves (inside
the DataNodes) decide *how* and *when* — one block at a time, smallest
job first, guarded by reference lists and the Do-not-harm rule.
"""

from .commands import EvictCommand, MigrateCommand, MigrationWorkItem
from .config import IgnemConfig
from .ha import HighAvailabilityMaster
from .heat import (
    HeatConfig,
    HeatEstimator,
    PopularityMigrator,
    PromotionCandidate,
    plan_promotions,
)
from .master import IgnemMaster
from .policy import (
    POLICIES,
    BenefitAware,
    FifoOrder,
    MigrationPolicy,
    SmallestJobFirst,
    make_policy,
)
from .slave import IgnemSlave

__all__ = [
    "BenefitAware",
    "EvictCommand",
    "FifoOrder",
    "HeatConfig",
    "HeatEstimator",
    "HighAvailabilityMaster",
    "IgnemConfig",
    "IgnemMaster",
    "IgnemSlave",
    "MigrateCommand",
    "MigrationPolicy",
    "MigrationWorkItem",
    "POLICIES",
    "PopularityMigrator",
    "PromotionCandidate",
    "SmallestJobFirst",
    "make_policy",
    "plan_promotions",
]
