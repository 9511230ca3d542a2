"""The log-entry table: E2's accounting lines and the persisted entries.

Every whole-log pass reads one declaration of each entry kind's shape:
sizing a log (E2), writing its JSON lines, counting its kinds, and saving
and loading it.  These tests pin the accounting line of every kind, check
that the sizer counts exactly the bytes of those lines, that a save then
a load gives back an equal entry, and that the version-2 reader still
takes entries an older writer saved without some field.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    InputLog,
    PCLArray,
    Postlog,
    Prelog,
    SpawnLog,
    SyncLog,
    SyncPrelog,
    record_from_json,
    run_program,
)
from repro.runtime.logging import LogFile, encode_value
from repro.runtime.persist import _CODECS, _CODECS_BY_KIND
from repro.workloads import fib_recursive
from tests.oracle.persist_v2 import record_to_json_v2


def _array(name, elem_type, items):
    array = PCLArray(name, elem_type, len(items))
    array.items = list(items)
    return array


#: One entry of each kind, with nested arrays, non-ASCII and escaped text,
#: a negative, a large and a float value, booleans and ``None``.
ENTRIES = [
    Prelog(
        timestamp=12,
        pid=3,
        interval_id=7,
        block_node_id=41,
        block_kind="loop",
        proc_name="wörker",
        values={
            "n": -5,
            "grid": _array(
                "grid", "int", [_array("row", "int", [1, -2]), _array("row", "int", [])]
            ),
            "f": 2.5,
            "ok": True,
        },
        args=[1, None, _array("v", "float", [0.5])],
        steps=90,
    ),
    Postlog(
        timestamp=13,
        pid=3,
        interval_id=7,
        values={"s": 'tab\there "q"', "big": 2**70},
        retval=_array("r", "bool", [True, False]),
        has_retval=True,
        steps=95,
    ),
    SyncPrelog(
        timestamp=14, pid=0, site_node_id=0, proc_name="main", values={"SV": 0, "ü": -1e-07}
    ),
    InputLog(
        timestamp=15, pid=2, source="recv", node_id=88, value=[3, _array("msg", "int", [9])]
    ),
    SyncLog(timestamp=16, pid=1, uid=2048, op="P", obj="mutex", node_id=5, sync_index=3),
    SpawnLog(
        timestamp=17, pid=0, child_pid=4, proc_name="child", args=[10, "x\n", None], node_id=19
    ),
]

#: The accounting line of each entry above, as E2 has counted it since the
#: sync entry became its history node.
LINES = [
    '{"kind":"Prelog","t":12,"pid":3,"interval":7,"block":41,"block_kind":"loop",'
    '"proc":"w\\u00f6rker","values":{"n":-5,"grid":{"__array__":"grid","type":"int",'
    '"items":[{"__array__":"row","type":"int","items":[1,-2]},'
    '{"__array__":"row","type":"int","items":[]}]},"f":2.5,"ok":true},'
    '"args":[1,null,{"__array__":"v","type":"float","items":[0.5]}],"steps":90}',
    '{"kind":"Postlog","t":13,"pid":3,"interval":7,'
    '"values":{"s":"tab\\there \\"q\\"","big":1180591620717411303424},'
    '"retval":{"__array__":"r","type":"bool","items":[true,false]},"has_retval":true,"steps":95}',
    '{"kind":"SyncPrelog","t":14,"pid":0,"site":0,"proc":"main",'
    '"values":{"SV":0,"\\u00fc":-1e-07}}',
    '{"kind":"InputLog","t":15,"pid":2,"source":"recv","node":88,'
    '"value":[3,{"__array__":"msg","type":"int","items":[9]}]}',
    '{"kind":"SyncLog","t":16,"pid":1,"uid":2048}',
    '{"kind":"SpawnLog","t":17,"pid":0,"child":4,"proc":"child","args":[10,"x\\n",null],"node":19}',
]


def _log(entries):
    log = LogFile(0)
    log.entries.extend(entries)
    return log


def _persisted(entry):
    """The entry as a saved record holds it: its row, dumped."""
    return json.dumps(_CODECS[type(entry)].row(entry), sort_keys=True, default=encode_value)


class TestAccountingLines:
    def test_each_kind_has_its_pinned_line(self):
        assert [entry.to_json() for entry in ENTRIES] == LINES

    def test_log_is_its_lines(self):
        log = _log(ENTRIES)
        assert log.to_jsonl() == "\n".join(LINES)
        assert log.byte_size() == sum(len(line) + 1 for line in LINES) == 901
        assert log.entry_counts() == {
            "Prelog": 1,
            "Postlog": 1,
            "SyncPrelog": 1,
            "InputLog": 1,
            "SyncLog": 1,
            "SpawnLog": 1,
        }

    def test_empty_log_has_no_bytes(self):
        log = _log([])
        assert log.byte_size() == 0
        assert log.to_jsonl() == ""
        assert log.entry_counts() == {}

    def test_kinds_are_counted_in_order_of_first_appearance(self):
        log = _log([ENTRIES[4], ENTRIES[0], ENTRIES[4], ENTRIES[1]])
        assert list(log.entry_counts().items()) == [("SyncLog", 2), ("Prelog", 1), ("Postlog", 1)]


# -- generated entries ------------------------------------------------------

_names = st.text(max_size=6) | st.sampled_from(["__array__", "type", "items", "é", 'q"\\'])
_scalars = (
    st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans()
    | st.none()
    | st.text(max_size=8)
)


def _arrays(items):
    return st.builds(
        lambda name, elem_type, values: _array(name, elem_type, values),
        _names,
        st.sampled_from(["int", "float", "bool"]),
        st.lists(items, max_size=4),
    )


#: A runtime value: a scalar, or arrays and lists nested in each other.
_values = st.recursive(
    _scalars, lambda inner: _arrays(inner) | st.lists(inner, max_size=3), max_leaves=12
)
_value_maps = st.dictionaries(_names, _values, max_size=4)
_args = st.lists(_values, max_size=4)
_ints = st.integers(min_value=-(2**40), max_value=2**40)
_texts = st.text(max_size=8)

_entries = st.one_of(
    st.builds(
        Prelog,
        timestamp=_ints,
        pid=_ints,
        interval_id=_ints,
        block_node_id=_ints,
        block_kind=_texts,
        proc_name=_texts,
        values=_value_maps,
        args=_args,
        steps=_ints,
    ),
    st.builds(
        Postlog,
        timestamp=_ints,
        pid=_ints,
        interval_id=_ints,
        values=_value_maps,
        retval=_values,
        has_retval=st.booleans(),
        steps=_ints,
    ),
    st.builds(
        SyncPrelog,
        timestamp=_ints,
        pid=_ints,
        site_node_id=_ints,
        proc_name=_texts,
        values=_value_maps,
    ),
    st.builds(
        InputLog, timestamp=_ints, pid=_ints, source=_texts, node_id=_ints, value=_values
    ),
    st.builds(
        SyncLog,
        timestamp=_ints,
        pid=_ints,
        uid=_ints,
        op=_texts,
        obj=_texts,
        node_id=_ints,
        sync_index=_ints,
    ),
    st.builds(
        SpawnLog,
        timestamp=_ints,
        pid=_ints,
        child_pid=_ints,
        proc_name=_texts,
        args=_args,
        node_id=_ints,
    ),
)


class TestGeneratedEntries:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_entries, min_size=1, max_size=6))
    def test_sizer_counts_the_lines(self, entries):
        log = _log(entries)
        assert log.byte_size() == len(log.to_jsonl()) + 1

    @settings(max_examples=200, deadline=None)
    @given(_entries.filter(lambda entry: type(entry) is not SyncLog))
    def test_save_then_load_gives_an_equal_entry(self, entry):
        text = _persisted(entry)
        row = json.loads(text)
        loaded = _CODECS_BY_KIND[row[0]].decode_row(row, entry.pid)
        assert loaded == entry
        # Arrays compare by items alone: their names and types must survive too.
        assert _persisted(loaded) == text


class TestOlderEntries:
    """A version-2 document whose entry lacks a field still loads: the
    field takes its dataclass default, as the decoder has always allowed."""

    @staticmethod
    def _without(field_name):
        record = run_program(fib_recursive(4), seed=0)
        body = json.loads(record_to_json_v2(record))
        del body["digest"]  # an unsigned document is named when it is loaded
        prelogs = [entry for entry in body["logs"]["0"] if entry["kind"] == "Prelog"]
        for entry in prelogs:
            del entry[field_name]
        return record, record_from_json(json.dumps(body))

    def test_missing_steps_loads_as_zero(self):
        record, loaded = self._without("steps")
        for before, after in zip(record.logs[0], loaded.logs[0]):
            if type(before) is Prelog:
                assert after.steps == 0
                assert dataclasses.replace(after, steps=before.steps) == before
            else:
                assert after == before

    def test_missing_values_load_as_fresh_empty_maps(self):
        _, loaded = self._without("values")
        prelogs = [entry for entry in loaded.logs[0] if type(entry) is Prelog]
        assert len(prelogs) > 1
        assert all(entry.values == {} for entry in prelogs)
        assert len({id(entry.values) for entry in prelogs}) == len(prelogs)


class TestEntryTable:
    def test_every_kind_is_declared(self):
        from repro.runtime.logging import ENTRY_SHAPES, LogEntry

        assert set(ENTRY_SHAPES) == set(LogEntry.__subclasses__())

    def test_shapes_are_the_dataclass_fields_in_order(self):
        """A load passes an entry's persisted fields positionally, so each
        shape lists its class's fields in order: all of them, but for the
        sync entry, whose line names its history node by uid alone."""
        from repro.runtime.logging import ENTRY_SHAPES

        for cls, shape in ENTRY_SHAPES.items():
            names = tuple(field.name for field in dataclasses.fields(cls))
            expected = names[:3] if cls is SyncLog else names
            assert shape.attrs == expected, cls.__name__
