"""Shard-parallel i-diff maintenance: routing, splitting, worker processes.

The shared-database sharding model: one live :class:`~repro.storage.Database`
serves every shard; what gets partitioned per maintenance round is the set
of *i-diff instance rows*.  :func:`plan_route` statically analyses a
∆-script against the round's instances and either proves that splitting
the rows by an *anchor key* keeps every counted operation shard-local
(``parallel``) or falls back to a single global execution (``broadcast``
— always correct, never slower).  :func:`split_instances` performs the
row split.  A shard counts into its database's one
:class:`~repro.storage.CounterSet` and is measured by the delta it adds
there, the way a broadcast execution is.

The router's veto walk is the one static proof that a parallel round's
shards touch disjoint rows; ``ShardedEngine(race_check=...)`` checks the
same claim at run time on the shards' captured write-sets.

See ``docs/SHARDING.md`` for the locality argument.
"""

from .router import RoutePlan, plan_route, split_instances
from .workers import ProcessShardPool, WorkerError, build_blueprint
from ..storage.partition import shard_of

__all__ = [
    "ProcessShardPool",
    "RoutePlan",
    "WorkerError",
    "build_blueprint",
    "plan_route",
    "shard_of",
    "split_instances",
]
