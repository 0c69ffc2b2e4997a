"""Seeded operation generator for the end-to-end benchmark.

Every round's batch is generated *before* the timed loop, from the
``--seed`` alone, against shadow state the generator keeps itself
(current prices, live parts and their placements, user counters).  The
program under test only ever sees the generated operations, and a batch
costs O(batch) to produce — unlike
``repro.workloads.mixed_modification_batch``, which scans
``devices_parts`` on every call.

An operation is a plain tuple::

    ("u", table, key, changes)    # engine.log.update
    ("i", table, row)             # engine.log.insert
    ("d", table, key)             # engine.log.delete

Determinism: only lists and insertion-ordered dicts are iterated, so
the stream does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

Op = tuple
Batch = list


@dataclass(frozen=True)
class DevicesBatch:
    """Shape of one devices round.

    ``updates`` price updates, of which ``updates_on_new`` hit parts
    inserted earlier in the same round (the log must fold
    insert∘update); ``new_parts`` parts inserted with ``fanout``
    placements each; ``removed_parts`` existing parts deleted together
    with their placements.  With ``new_parts == removed_parts`` the
    database size is stationary.
    """

    updates: int
    new_parts: int = 0
    removed_parts: int = 0
    updates_on_new: int = 0

    def modifications(self, fanout: int) -> int:
        return self.updates + (self.new_parts + self.removed_parts) * (1 + fanout)


class DevicesShadow:
    """Generator-side copy of what the devices stream depends on."""

    def __init__(
        self,
        parts_rows: Iterable[Sequence],
        placement_rows: Iterable[Sequence],
        device_ids: Sequence[str],
    ):
        self.price: dict[str, int] = {pid: price for pid, price in parts_rows}
        self.live: list[str] = list(self.price)
        self.placed: dict[str, list[str]] = {pid: [] for pid in self.live}
        for did, pid in placement_rows:
            self.placed[pid].append(did)
        self.device_ids = list(device_ids)


def devices_rounds(
    shadow: DevicesShadow,
    rng: random.Random,
    n_rounds: int,
    shape: DevicesBatch,
    fanout: int,
) -> list[Batch]:
    """``n_rounds`` batches of *shape*; advances *shadow* as it goes."""
    price, live, placed = shadow.price, shadow.live, shadow.placed
    on_existing = shape.updates - shape.updates_on_new
    rounds: list[Batch] = []
    for r in range(n_rounds):
        batch: Batch = []
        picked = rng.sample(range(len(live)), shape.removed_parts + on_existing)
        doomed_idx = picked[: shape.removed_parts]
        doomed = [live[i] for i in doomed_idx]
        updated = [live[i] for i in picked[shape.removed_parts:]]

        fresh = [f"N{r}_{j}" for j in range(shape.new_parts)]
        for pid in fresh:
            price[pid] = rng.randint(1, 500)
            placed[pid] = rng.sample(shadow.device_ids, fanout)
            batch.append(("i", "parts", (pid, price[pid])))
            for did in placed[pid]:
                batch.append(("i", "devices_parts", (did, pid)))

        for pid in updated + fresh[: shape.updates_on_new]:
            price[pid] += rng.randint(1, 9)
            batch.append(("u", "parts", (pid,), {"price": price[pid]}))

        for pid in doomed:
            for did in placed.pop(pid):
                batch.append(("d", "devices_parts", (did, pid)))
            batch.append(("d", "parts", (pid,)))
            del price[pid]
        # Swap-pop from the highest index down keeps removal O(1) each
        # without disturbing the lower indices still to be removed.
        for i in sorted(doomed_idx, reverse=True):
            live[i] = live[-1]
            live.pop()
        live.extend(fresh)
        rounds.append(batch)
    return rounds


def bsma_rounds(
    users_rows: Iterable[Sequence],
    rng: random.Random,
    n_rounds: int,
    updates: int,
) -> list[Batch]:
    """The paper's BSMA workload: *updates* users per round get new
    ``tweetsnum`` / ``favornum`` values (always a real change)."""
    state = {row[0]: [row[2], row[3]] for row in users_rows}
    uids = list(state)
    rounds: list[Batch] = []
    for _ in range(n_rounds):
        batch: Batch = []
        for uid in rng.sample(uids, updates):
            counters = state[uid]
            counters[0] += rng.randint(1, 5)
            counters[1] += rng.randint(1, 3)
            batch.append(
                ("u", "users", (uid,),
                 {"tweetsnum": counters[0], "favornum": counters[1]})
            )
        rounds.append(batch)
    return rounds


def input_digest(rounds: Sequence[Batch]) -> str:
    """SHA-256 of the whole operation stream, round boundaries included.

    ``repr`` of str/int tuples and insertion-ordered dicts is stable, so
    equal digests mean byte-identical inputs to ``engine.log``.
    """
    h = hashlib.sha256()
    for batch in rounds:
        h.update(b"round\n")
        for op in batch:
            h.update(repr(op).encode())
            h.update(b"\n")
    return h.hexdigest()


def log_batch(log, batch: Batch) -> None:
    """Feed one batch to ``engine.log`` — the only way the program sees
    the generated input."""
    insert, update, delete = log.insert, log.update, log.delete
    for op in batch:
        kind = op[0]
        if kind == "u":
            update(op[1], op[2], op[3])
        elif kind == "i":
            insert(op[1], op[2])
        else:
            delete(op[1], op[2])
