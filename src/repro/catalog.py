"""Deterministic thousand-view catalog over the BSMA schema.

Production IVM installations maintain thousands of views over the same
handful of base tables; this module generates a catalog of that shape
for catalog-scale analysis (``repro lint --catalog``), the incremental
lint cache and the SHARE7xx sharing pass.  Everything derives from the
view *index* by plain arithmetic — no RNG, no ambient state — so the
same :class:`CatalogConfig` always yields byte-identical plans, labels
and order.

The catalog seeds controlled overlap:

* **overlap groups** (``gNNN_mK``) — ``group_size`` views per group
  that aggregate the *same* join sub-plan under different grouping
  keys/aggregates.  The generator materializes that shared sub-plan as
  each view's intermediate cache, so SHARE701 must flag every group.
* **duplicates** (``dupNNN``) — verbatim re-definitions of a group
  member under a new name (SHARE702 material).
* **subsumed views** (``subNNN``) — a projection of a group's shared
  sub-plan, which an engine answers from the group's cache (SHARE703
  material).
* **fillers** (``fluNNN``/``flmNNN``/``flrNNN``/``flgNNN``) — distinct
  single-table σ/π (and the occasional γ) views that pad the catalog to
  ``n_views`` without adding overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    PlanNode,
    equi_join,
    group_by,
    project_columns,
    rename,
    scan,
    where,
)
from .expr import all_of, col, lit
from .expr.ast import Cmp
from .storage import Database
from .workloads.bsma import BsmaConfig, build_database


@dataclass(frozen=True)
class CatalogConfig:
    """Shape of the generated catalog (defaults: the 1,000-view bed)."""

    n_views: int = 1000
    n_overlap_groups: int = 40
    group_size: int = 4
    n_duplicates: int = 12
    n_subsumed: int = 12
    #: base-database scale (kept small: the catalog exercises analysis,
    #: not execution)
    db_users: int = 24
    db_friends: int = 2
    db_tweets: int = 48


def build_catalog_database(config: CatalogConfig = CatalogConfig()) -> Database:
    """The shared BSMA base database all catalog views are defined over."""
    return build_database(
        BsmaConfig(
            n_users=config.db_users,
            friends_per_user=config.db_friends,
            n_tweets=config.db_tweets,
        )
    )


def _window(column: str, lo: int, hi: int):
    return all_of(
        Cmp(">=", col(column), lit(lo)), Cmp("<", col(column), lit(hi))
    )


def _shared_subplan(db: Database, group: int) -> PlanNode:
    """The join sub-plan shared by every member of overlap group *group*.

    Three structural families (by ``group % 3``) with group-dependent
    window literals, so distinct groups never collide.
    """
    lo = 100 + 13 * group
    hi = lo + 150 + 7 * (group % 5)
    family = group % 3
    blog = rename(
        scan(db, "microblog"),
        {"mid": "t_mid", "uid": "author", "ts": "t_ts", "topic": "t_topic"},
    )
    if family == 0:
        join = equi_join(scan(db, "mentions"), blog, [("mid", "t_mid")])
    elif family == 1:
        join = equi_join(scan(db, "retweets"), blog, [("mid", "t_mid")])
    else:
        join = equi_join(
            scan(db, "rel_event_microblog"), blog, [("mid", "t_mid")]
        )
    return where(join, _window("t_ts", lo, hi))


#: per-member γ shapes over a shared sub-plan: (keys, aggs) — keys come
#: from the microblog side, which every structural family exposes
_MEMBER_SHAPES = (
    (("author",), (("count", None, "cnt"),)),
    (("t_topic",), (("count", None, "cnt"), ("sum", "t_ts", "ts_total"))),
    (("author", "t_topic"), (("count", None, "cnt"),)),
    (("author",), (("sum", "t_ts", "ts_total"),)),
)


def _group_member(db: Database, group: int, member: int) -> PlanNode:
    keys, agg_specs = _MEMBER_SHAPES[member % len(_MEMBER_SHAPES)]
    aggs = [
        (func, col(arg) if arg is not None else None, name)
        for func, arg, name in agg_specs
    ]
    return group_by(_shared_subplan(db, group), keys, aggs)


def _subsumed_view(db: Database, index: int) -> PlanNode:
    id_col = ("mnid", "rwid", "remid")[index % 3]
    return project_columns(_shared_subplan(db, index), (id_col, "mid", "author"))


def _filler_view(db: Database, index: int) -> tuple[str, PlanNode]:
    lo = 1000 + 3 * index
    hi = lo + 40 + index % 9
    family = index % 4
    if family == 0:
        plan = project_columns(
            where(scan(db, "microblog"), _window("ts", lo, hi)),
            (("mid", "uid"), ("mid", "topic"), ("mid", "uid", "ts"))[index % 3],
        )
        return f"flu{index:04d}", plan
    if family == 1:
        plan = where(
            scan(db, "users"), Cmp("=", col("city"), lit(index % 20))
        )
        # distinct fingerprints beyond the 20 cities: vary a second conjunct
        plan = where(plan, Cmp(">=", col("tweetsnum"), lit(index // 20)))
        return f"flm{index:04d}", plan
    if family == 2:
        plan = project_columns(
            where(scan(db, "retweets"), _window("rts", lo, hi)),
            ("rwid", "mid", "uid"),
        )
        return f"flr{index:04d}", plan
    plan = group_by(
        where(scan(db, "microblog"), _window("ts", lo, hi)),
        ("uid",),
        [("count", None, "tweets"), ("sum", col("ts"), "ts_total")],
    )
    return f"flg{index:04d}", plan


def catalog_views(
    db: Database, config: CatalogConfig = CatalogConfig()
) -> list[tuple[str, PlanNode]]:
    """The full deterministic catalog: ``[(label, plan), ...]``.

    Order is fixed (groups, duplicates, subsumed, fillers) and the list
    is truncated to ``config.n_views``.
    """
    views: list[tuple[str, PlanNode]] = []
    for group in range(config.n_overlap_groups):
        for member in range(config.group_size):
            views.append(
                (f"g{group:03d}_m{member}", _group_member(db, group, member))
            )
    for dup in range(config.n_duplicates):
        group = dup % max(1, config.n_overlap_groups)
        views.append((f"dup{dup:03d}", _group_member(db, group, 0)))
    for sub in range(config.n_subsumed):
        index = sub % max(1, config.n_overlap_groups)
        views.append((f"sub{sub:03d}", _subsumed_view(db, index)))
    filler = 0
    while len(views) < config.n_views:
        views.append(_filler_view(db, filler))
        filler += 1
    return views[: config.n_views]
