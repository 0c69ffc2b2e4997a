"""Wire format: round trips, strictness, cross-process determinism.

The determinism tests are the important half: the process shard backend
is only exact if the coordinator and every worker agree byte-for-byte on
what travels.  ``shard_of`` routing and every ``wire`` encoder must
therefore be independent of ``PYTHONHASHSEED`` — pinned here by running
the same generated inputs in subprocesses under different hash seeds and
comparing digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zlib

import pytest

from repro.core import wire
from repro.core.diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema
from repro.core.modlog import LoggedModification
from repro.errors import WireError
from repro.storage import CounterSet, shard_key_bytes, shard_of

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
def _sample_instances() -> dict[str, Diff]:
    ins = DiffSchema(INSERT, "t", ("k",), (), ("a", "b"))
    upd = DiffSchema(UPDATE, "t", ("k",), ("a",), ("a",))
    dele = DiffSchema(DELETE, "t", ("k",), ("a", "b"), ())
    return {
        "d1_ins": Diff(ins, [(1, "x", None), (2, "y", 3.5)]),
        "d2_upd": Diff(upd, [(1, 10, 11), (4, False, True)]),
        "d3_del": Diff(dele, [(9, "z", 0)]),
    }


def test_instances_round_trip():
    instances = _sample_instances()
    doc = wire.encode_instances(instances)
    back = wire.decode_instances(doc)
    assert sorted(back) == sorted(instances)
    for name, diff in instances.items():
        got = back[name]
        assert type(got) is Diff
        assert got.schema.kind == diff.schema.kind
        assert got.schema.target == diff.schema.target
        assert got.schema.columns == diff.schema.columns
        assert got.rows == diff.rows


def test_instances_doc_is_json_safe_and_columnar():
    doc = wire.encode_instances(_sample_instances())
    json.dumps(doc)  # primitives only, no tuples/sets
    for entry in doc["diffs"]:
        for col in entry["cols"]:
            assert len(col) == entry["rows"]  # one list per attribute


def test_log_batch_round_trip_and_clock_domain():
    entries = [
        LoggedModification("+", "t", (1,), row=(1, "a", None)),
        LoggedModification("u", "t", (1,), changes={"b": 2, "a": "c"}),
        LoggedModification("-", "t", (1,)),
    ]
    for i, entry in enumerate(entries):
        entry.seq = i + 1
        entry.logged_at = 123.456  # coordinator monotonic clock
    doc = wire.encode_log_batch(entries)
    # the coordinator's monotonic reading must never cross the wire
    assert b"123.456" not in wire.canonical_bytes(doc)
    back = wire.decode_log_batch(doc)
    assert len(back) == 3
    for orig, got in zip(entries, back):
        assert (got.kind, got.table, got.key) == (orig.kind, orig.table, orig.key)
        assert got.row == orig.row
        assert got.changes == orig.changes
        assert got.seq == orig.seq
        assert got.logged_at == 0.0  # worker clock domain starts blank


def test_counters_round_trip_is_exact():
    cs = CounterSet()
    with cs.phase("cache_update"):
        cs.count_index_lookup(3)
        cs.count_tuple_read(7)
    with cs.phase("view_update"):
        cs.count_tuple_write(2)
        cs.count_index_maintenance(5)
    back = wire.decode_counters(wire.encode_counters(cs.snapshot()))
    assert {p: c.as_dict() for p, c in back.items()} == {
        p: c.as_dict() for p, c in cs.snapshot().items()
    }


def test_writeset_round_trip_preserves_per_table_order():
    ops = {
        "c3": [
            ("s", (1,), (1, "a")),
            ("d", (2,)),
            ("s", (2,), (2, "b")),
            ("x", ("a",)),
        ],
        "o1": [("d", (5, "k"))],
    }
    back = wire.decode_writeset(wire.encode_writeset(ops))
    assert back == {tag: list(map(tuple, entries)) for tag, entries in ops.items()}


# ----------------------------------------------------------------------
# strictness
# ----------------------------------------------------------------------
def test_non_primitive_diff_value_rejected():
    schema = DiffSchema(INSERT, "t", ("k",), (), ("a",))
    bad = Diff(schema, [(1, (2, 3))])  # tuple-valued attribute
    with pytest.raises(WireError):
        wire.encode_instances({"d": bad})


def test_non_primitive_log_value_rejected():
    entry = LoggedModification("+", "t", (1,), row=(1, {"nested": "dict"}))
    with pytest.raises(WireError):
        wire.encode_log_batch([entry])


def test_primitive_check_rejects_subclasses():
    class FancyInt(int):
        pass

    with pytest.raises(WireError):
        wire.check_primitive(FancyInt(3))
    assert wire.check_primitive(3) == 3
    assert wire.check_primitive(None) is None


def test_unknown_write_op_rejected():
    with pytest.raises(WireError):
        wire.encode_writeset({"t": [("q", (1,))]})


def test_decoders_reject_wrong_kind():
    doc = wire.encode_counters(CounterSet().snapshot())
    with pytest.raises(WireError):
        wire.decode_instances(doc)
    with pytest.raises(WireError):
        wire.decode_log_batch({"kind": "modlog-batch", "v": 999})


def test_decode_instances_rejects_ragged_columns():
    # A column shorter than ``rows`` used to lose the row silently on the
    # worker path and raise a bare IndexError on the default one.
    doc = wire.encode_instances(_sample_instances())
    entry = doc["diffs"][0]
    assert entry["rows"] == 2
    entry["cols"][2].pop()
    with pytest.raises(WireError, match=r"'d1_ins' column 'b__post'"):
        wire.decode_instances(doc)
    entry["cols"].pop()
    with pytest.raises(WireError, match="'d1_ins'"):
        wire.decode_instances(doc)


# ----------------------------------------------------------------------
# canonical bytes: float edge cases and injectivity
# ----------------------------------------------------------------------
class TestCanonicalFloats:
    def _bytes(self, value):
        return wire.canonical_bytes({"v": value})

    def test_int_and_float_of_equal_value_differ(self):
        # 1 == 1.0 as dict keys/values, but content addressing must keep
        # them apart: decode reproduces the exact type.
        assert self._bytes(1) != self._bytes(1.0)

    def test_signed_zero_is_preserved(self):
        assert self._bytes(0.0) != self._bytes(-0.0)

    def test_bool_and_int_differ(self):
        assert self._bytes(True) != self._bytes(1)
        assert self._bytes(False) != self._bytes(0)

    def test_nan_and_infinities_are_deterministic(self):
        # Plain json.dumps would emit non-standard NaN/Infinity tokens
        # (or raise under allow_nan=False); the "~f" tag renders them via
        # repr, so they get a stable strict-JSON byte form.
        for value in (float("nan"), float("inf"), float("-inf")):
            assert self._bytes(value) == self._bytes(value)
        assert self._bytes(float("inf")) != self._bytes(float("-inf"))
        assert self._bytes(float("nan")) != self._bytes(float("inf"))

    def test_tagged_list_escape_keeps_encoding_injective(self):
        # A genuine list that *looks like* a float tag must not collide
        # with an actual float's canonical form.
        assert self._bytes(["~f", "1.0"]) != self._bytes(1.0)
        # ... and the escape itself is escaped.
        assert self._bytes(["~l", "~f", "1.0"]) != self._bytes(["~f", "1.0"])

    def test_float_repr_round_trips_the_value(self):
        for value in (0.1, 1e300, 5e-324, -0.0, 3.5):
            doc = wire.canonical_bytes({"v": value})
            tagged = json.loads(doc)["v"]
            assert tagged[0] == "~f"
            back = float(tagged[1])
            assert (back == value and str(back) == str(value)) or (
                back != back and value != value
            )

    def test_non_str_dict_key_rejected(self):
        with pytest.raises(WireError):
            wire.canonical_bytes({"d": {1: "x"}})


def test_instances_round_trip_float_edge_cases():
    schema = DiffSchema(INSERT, "t", ("k",), (), ("a",))
    rows = [(1, 1.0), (2, -0.0), (3, float("nan")), (4, 1)]
    doc = wire.encode_instances({"d": Diff(schema, rows)})
    back = wire.decode_instances(doc)["d"].rows
    assert back[0] == (1, 1.0) and type(back[0][1]) is float
    assert str(back[1][1]) == "-0.0"
    assert back[2][1] != back[2][1]  # NaN survives
    assert type(back[3][1]) is int


# ----------------------------------------------------------------------
# shard_of determinism (in process)
# ----------------------------------------------------------------------
def test_shard_of_hashes_canonical_key_bytes():
    for key in [("u1",), (3, "x"), (None, 2.5, True)]:
        assert shard_of(key, 8) == zlib.crc32(shard_key_bytes(key)) % 8


# ----------------------------------------------------------------------
# cross-process determinism under PYTHONHASHSEED
# ----------------------------------------------------------------------
# The child builds wire documents and shard assignments from generated
# crosscheck cases, deliberately feeding construction through *sets* (the
# only stdlib container whose iteration order depends on the hash seed)
# so an encoder that forgot to sort would produce seed-dependent bytes.
_CHILD_SCRIPT = r"""
import hashlib, json, sys, zlib
from repro.core import wire
from repro.core.diffs import INSERT, UPDATE, Diff, DiffSchema
from repro.core.modlog import LoggedModification
from repro.crosscheck.generate import generate_case
from repro.storage import shard_of
from repro.storage.counters import CounterSet

def digest(doc):
    return hashlib.sha256(wire.canonical_bytes(doc)).hexdigest()

out = {"instances": [], "log": [], "writeset": [], "shards": []}
for index in range(6):
    case = generate_case(1234, index)
    # ---- i-diff instances, built in set-iteration order ----
    instances = {}
    specs = {}
    for t in case["tables"]:
        name = t["name"]
        key = tuple(t["key"])
        rest = tuple(c for c in t["columns"] if c not in key)
        schema = DiffSchema(INSERT, name, key, (), rest)
        order = [t["columns"].index(c) for c in key + rest]
        rows = [tuple(row[i] for i in order) for row in t["rows"]]
        specs["d_" + name] = (schema, rows)
    for label in set(specs):  # seed-dependent insertion order
        schema, rows = specs[label]
        instances[label] = Diff(schema, rows)
    out["instances"].append(digest(wire.encode_instances(instances)))
    # ---- modlog batch ----
    entries = []
    for seq, mod in enumerate(case["batches"][0], start=1):
        if mod["op"] == "insert":
            e = LoggedModification("+", mod["table"], (mod["row"][0],),
                                   row=tuple(mod["row"]))
        elif mod["op"] == "delete":
            e = LoggedModification("-", mod["table"], tuple(mod["key"]))
        else:
            e = LoggedModification("u", mod["table"], tuple(mod["key"]),
                                   changes=dict(mod["changes"]))
        e.seq = seq
        entries.append(e)
    out["log"].append(digest(wire.encode_log_batch(entries)))
    # ---- write-set, tags via a set ----
    ops = {}
    tags = {"c%d" % i for i in range(5)} | {"o%d" % i for i in range(3)}
    for tag in tags:  # seed-dependent iteration order
        ops[tag] = [("s", (len(tag),), (len(tag), tag)), ("x", ("a", "b"))]
    out["writeset"].append(digest(wire.encode_writeset(ops)))
    # ---- routing ----
    for t in case["tables"]:
        for row in t["rows"]:
            key = tuple(row[t["columns"].index(c)] for c in t["key"])
            out["shards"].append(shard_of(key, 4))
cs = CounterSet()
with cs.phase("p"):
    cs.count_tuple_read(3)
out["counters"] = digest(wire.encode_counters(cs.snapshot()))
json.dump(out, sys.stdout, sort_keys=True)
"""


def _run_child(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_wire_documents_identical_across_hash_seeds():
    results = [_run_child(seed) for seed in ("0", "1", "12345")]
    assert results[0] == results[1] == results[2]
    # and the parent process (pytest's own seed) agrees on routing
    assert len(results[0]["shards"]) > 50


def test_parent_and_child_agree_on_shard_assignment():
    child = _run_child("7")
    from repro.crosscheck.generate import generate_case

    mine = []
    for index in range(6):
        case = generate_case(1234, index)
        for t in case["tables"]:
            for row in t["rows"]:
                key = tuple(row[t["columns"].index(c)] for c in t["key"])
                mine.append(shard_of(key, 4))
    assert mine == child["shards"]
