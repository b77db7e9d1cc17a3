"""The durability tier: segment snapshots and a write-ahead changelog.

:class:`DurableStore` persists an observed
:class:`~repro.model.database.UncertainDatabase` across restarts and
crashes: checkpoints write its facts to checksummed segment files
(:mod:`~repro.durability.segments`), committed mutation batches append to
a framed changelog as rows of raw values
(:mod:`~repro.durability.changelog`), and recovery replays snapshot +
changelog tail to exactly the last committed state.  The tier persists
facts, never interned ids, so it keeps no store or intern table of its own.
"""

from .changelog import (
    SYNC_POLICIES,
    ChangelogRecord,
    ChangelogWriter,
    read_changelog,
    truncate_changelog,
)
from .durable import DurabilityError, DurabilityStats, DurableStore
from .segments import SegmentCorruption, SegmentData, read_segment, write_segment

__all__ = [
    "ChangelogRecord",
    "ChangelogWriter",
    "DurabilityError",
    "DurabilityStats",
    "DurableStore",
    "SYNC_POLICIES",
    "SegmentCorruption",
    "SegmentData",
    "read_changelog",
    "read_segment",
    "truncate_changelog",
    "write_segment",
]
