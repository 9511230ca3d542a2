"""Wire-protocol tests: golden lines per verb, validation, framing."""

import json

import pytest

from repro.server import (
    ALL_OPS,
    LIFECYCLE_OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
    VERBS,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
)

# ----------------------------------------------------------------------
# Golden request/response pairs — one per verb and lifecycle op.  These
# exact byte strings are the protocol's compatibility contract: a change
# that breaks one of them is a wire-format change and needs a version
# bump.
# ----------------------------------------------------------------------

GOLDEN = {
    "where": (
        Request(op="where", id=1, session="s1"),
        '{"id":1,"op":"where","session":"s1","v":2}',
        Response(id=1, output="the program completed normally"),
        '{"id":1,"ok":true,"output":"the program completed normally","v":2}',
    ),
    "output": (
        Request(op="output", id=2, session="s1"),
        '{"id":2,"op":"output","session":"s1","v":2}',
        Response(id=2, output="P0: average = 20"),
        '{"id":2,"ok":true,"output":"P0: average = 20","v":2}',
    ),
    "graph": (
        Request(op="graph", id=3, session="s1", args=["6"]),
        '{"args":["6"],"id":3,"op":"graph","session":"s1","v":2}',
        Response(id=3, output="#12 ..."),
        '{"id":3,"ok":true,"output":"#12 ...","v":2}',
    ),
    "view": (
        Request(op="view", id=4, session="s1", args=["12", "15"]),
        '{"args":["12","15"],"id":4,"op":"view","session":"s1","v":2}',
        Response(id=4, output="(view)"),
        '{"id":4,"ok":true,"output":"(view)","v":2}',
    ),
    "why": (
        Request(op="why", id=5, session="s1", args=["average"]),
        '{"args":["average"],"id":5,"op":"why","session":"s1","v":2}',
        Response(id=5, output="average <- total / n"),
        '{"id":5,"ok":true,"output":"average <- total / n","v":2}',
    ),
    "back": (
        Request(op="back", id=6, session="s1", args=["12", "4"]),
        '{"args":["12","4"],"id":6,"op":"back","session":"s1","v":2}',
        Response(id=6, output="(flowback)"),
        '{"id":6,"ok":true,"output":"(flowback)","v":2}',
    ),
    "forward": (
        Request(op="forward", id=7, session="s1", args=["12"]),
        '{"args":["12"],"id":7,"op":"forward","session":"s1","v":2}',
        Response(id=7, output="(forward)"),
        '{"id":7,"ok":true,"output":"(forward)","v":2}',
    ),
    "expand": (
        Request(op="expand", id=8, session="s1", args=["9"]),
        '{"args":["9"],"id":8,"op":"expand","session":"s1","v":2}',
        Response(id=8, output="replayed interval 2: 21 events regenerated"),
        '{"id":8,"ok":true,"output":"replayed interval 2: 21 events regenerated","v":2}',
    ),
    "expandable": (
        Request(op="expandable", id=9, session="s1"),
        '{"id":9,"op":"expandable","session":"s1","v":2}',
        Response(id=9, output="(nothing to expand)"),
        '{"id":9,"ok":true,"output":"(nothing to expand)","v":2}',
    ),
    "races": (
        Request(op="races", id=10, session="s1"),
        '{"id":10,"op":"races","session":"s1","v":2}',
        Response(id=10, output="this execution instance is race-free (Def 6.4)"),
        '{"id":10,"ok":true,"output":"this execution instance is race-free (Def 6.4)","v":2}',
    ),
    "lint": (
        Request(op="lint", id=25, session="s1", args=["json", "error"]),
        '{"args":["json","error"],"id":25,"op":"lint","session":"s1","v":2}',
        Response(id=25, output="no error findings"),
        '{"id":25,"ok":true,"output":"no error findings","v":2}',
    ),
    "localize": (
        Request(op="localize", id=27, session="s1", args=["3", "json"]),
        '{"args":["3","json"],"id":27,"op":"localize","session":"s1","v":2}',
        Response(id=27, output="all processes match their group consensus"),
        '{"id":27,"ok":true,"output":"all processes match their group consensus","v":2}',
    ),
    "candidates": (
        Request(op="candidates", id=26, session="s1", args=["total"]),
        '{"args":["total"],"id":26,"op":"candidates","session":"s1","v":2}',
        Response(id=26, output="'total': 2 candidate site pair(s)"),
        '{"id":26,"ok":true,"output":"\'total\': 2 candidate site pair(s)","v":2}',
    ),
    "deadlock": (
        Request(op="deadlock", id=11, session="s1"),
        '{"id":11,"op":"deadlock","session":"s1","v":2}',
        Response(id=11, output="no deadlock"),
        '{"id":11,"ok":true,"output":"no deadlock","v":2}',
    ),
    "parallel": (
        Request(op="parallel", id=12, session="s1"),
        '{"id":12,"op":"parallel","session":"s1","v":2}',
        Response(id=12, output="parallel dynamic graph"),
        '{"id":12,"ok":true,"output":"parallel dynamic graph","v":2}',
    ),
    "restore": (
        Request(op="restore", id=13, session="s1", args=["9999"]),
        '{"args":["9999"],"id":13,"op":"restore","session":"s1","v":2}',
        Response(id=13, output="shared memory at t=9999:"),
        '{"id":13,"ok":true,"output":"shared memory at t=9999:","v":2}',
    ),
    "history": (
        Request(op="history", id=14, session="s1", args=["SV"]),
        '{"args":["SV"],"id":14,"op":"history","session":"s1","v":2}',
        Response(id=14, output="accesses to 'SV'"),
        '{"id":14,"ok":true,"output":"accesses to \'SV\'","v":2}',
    ),
    "slice": (
        Request(op="slice", id=15, session="s1", args=["12"]),
        '{"args":["12"],"id":15,"op":"slice","session":"s1","v":2}',
        Response(id=15, output="dynamic slice: s9, s10"),
        '{"id":15,"ok":true,"output":"dynamic slice: s9, s10","v":2}',
    ),
    "stats": (
        Request(op="stats", id=16, session="s1", args=["obs"]),
        '{"args":["obs"],"id":16,"op":"stats","session":"s1","v":2}',
        Response(id=16, output="session: 1 replay(s), 7 events generated"),
        '{"id":16,"ok":true,"output":"session: 1 replay(s), 7 events generated","v":2}',
    ),
    "save": (
        Request(op="save", id=17, session="s1", args=["/tmp/run.ppd.json"]),
        '{"args":["/tmp/run.ppd.json"],"id":17,"op":"save","session":"s1","v":2}',
        Response(id=17, output="saved record to /tmp/run.ppd.json"),
        '{"id":17,"ok":true,"output":"saved record to /tmp/run.ppd.json","v":2}',
    ),
    "load": (
        Request(op="load", id=18, session="s1", args=["/tmp/run.ppd.json"]),
        '{"args":["/tmp/run.ppd.json"],"id":18,"op":"load","session":"s1","v":2}',
        Response(id=18, output="loaded record from /tmp/run.ppd.json (1 process(es), 17 steps)"),
        '{"id":18,"ok":true,"output":"loaded record from /tmp/run.ppd.json '
        '(1 process(es), 17 steps)","v":2}',
    ),
    "help": (
        Request(op="help", id=19, session="s1"),
        '{"id":19,"op":"help","session":"s1","v":2}',
        Response(id=19, output="``where`` ..."),
        '{"id":19,"ok":true,"output":"``where`` ...","v":2}',
    ),
    "open": (
        Request(op="open", id=20, payload={"program": "proc main() {}", "seed": 3}),
        '{"id":20,"op":"open","program":"proc main() {}","seed":3,"v":2}',
        Response(id=20, output="opened s1", data={"session": "s1", "info": {"steps": 17}}),
        '{"id":20,"info":{"steps":17},"ok":true,"output":"opened s1","session":"s1","v":2}',
    ),
    "close": (
        Request(op="close", id=21, session="s1"),
        '{"id":21,"op":"close","session":"s1","v":2}',
        Response(id=21, output="closed s1"),
        '{"id":21,"ok":true,"output":"closed s1","v":2}',
    ),
    "list": (
        Request(op="list", id=22),
        '{"id":22,"op":"list","v":2}',
        Response(id=22, data={"sessions": [{"session": "s1", "live": True}]}),
        '{"id":22,"ok":true,"sessions":[{"live":true,"session":"s1"}],"v":2}',
    ),
    "ping": (
        Request(op="ping", id=23),
        '{"id":23,"op":"ping","v":2}',
        Response(id=23, output="pong"),
        '{"id":23,"ok":true,"output":"pong","v":2}',
    ),
    "shutdown": (
        Request(op="shutdown", id=24),
        '{"id":24,"op":"shutdown","v":2}',
        Response(id=24, output="draining"),
        '{"id":24,"ok":true,"output":"draining","v":2}',
    ),
}


#: A protocol-1 client (which could pick an ``engine`` on ``open``) and the
#: typed error reply the service sends it: protocol 2 drops the field, so
#: an old client must fail loudly rather than be served on other terms.
V1_REQUEST = '{"engine":"vm","id":1,"op":"open","program":"proc main() {}","seed":0,"v":1}'
V1_REPLY = (
    '{"error":{"code":"bad-version","message":"protocol version 1 not supported '
    '(this end speaks 2)"},"id":0,"ok":false,"v":2}'
)


class TestGoldenPairs:
    def test_v1_request_gets_typed_bad_version(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(V1_REQUEST)
        error = excinfo.value
        assert encode_response(error_response(0, error.code, error.message)) == V1_REPLY + "\n"

    def test_every_op_has_a_golden_pair(self):
        assert set(GOLDEN) == set(ALL_OPS)
        assert set(GOLDEN) >= set(VERBS)
        assert set(GOLDEN) >= set(LIFECYCLE_OPS)

    @pytest.mark.parametrize("op", sorted(GOLDEN))
    def test_request_encodes_to_golden_line(self, op):
        request, wire, _, _ = GOLDEN[op]
        assert encode_request(request) == wire + "\n"

    @pytest.mark.parametrize("op", sorted(GOLDEN))
    def test_request_decodes_from_golden_line(self, op):
        request, wire, _, _ = GOLDEN[op]
        assert decode_request(wire) == request

    @pytest.mark.parametrize("op", sorted(GOLDEN))
    def test_response_encodes_to_golden_line(self, op):
        _, _, response, wire = GOLDEN[op]
        assert encode_response(response) == wire + "\n"

    @pytest.mark.parametrize("op", sorted(GOLDEN))
    def test_response_decodes_from_golden_line(self, op):
        _, _, response, wire = GOLDEN[op]
        assert decode_response(wire) == response


class TestErrors:
    def test_error_response_round_trip(self):
        wire = encode_response(error_response(7, "unknown-session", "no session 's9'"))
        decoded = decode_response(wire)
        assert decoded.ok is False
        assert decoded.error == {"code": "unknown-session", "message": "no session 's9'"}

    def test_unknown_error_code_downgraded_to_internal(self):
        assert error_response(1, "nonsense", "x").error["code"] == "internal"

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request("{not json")
        assert excinfo.value.code == "bad-json"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request("[1,2,3]")
        assert excinfo.value.code == "bad-json"

    def test_version_mismatch(self):
        line = json.dumps({"v": PROTOCOL_VERSION + 1, "id": 1, "op": "ping"})
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert excinfo.value.code == "bad-version"

    def test_missing_version(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request('{"id":1,"op":"ping"}')
        assert excinfo.value.code == "bad-version"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request('{"id":1,"op":"frobnicate","v":2}')
        assert excinfo.value.code == "unknown-verb"

    def test_verb_requires_session(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request('{"id":1,"op":"why","v":2}')
        assert excinfo.value.code == "bad-request"

    def test_open_requires_exactly_one_source(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request('{"id":1,"op":"open","v":2}')
        assert excinfo.value.code == "bad-request"
        both = json.dumps(
            {"v": 2, "id": 1, "op": "open", "program": "x", "record_path": "y"}
        )
        with pytest.raises(ProtocolError):
            decode_request(both)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("program", 7),
            ("record_json", {"logs": {}}),
            ("record_path", 3),
            ("inputs", "10,20"),
            ("inputs", [10, "20"]),
            ("inputs", [True]),
            ("seed", "0"),
            ("seed", None),
            ("seed", True),
        ],
        ids=lambda value: repr(value),
    )
    def test_open_fields_are_type_checked(self, field, value):
        """Each inline ``open`` field is rejected as ``bad-request`` before
        the service acts on it (``record_path: 3`` used to reach
        ``open(3)``, reading the daemon's file descriptor 3)."""
        payload = {field: value}
        if field in ("inputs", "seed"):
            payload["program"] = "proc main() {}"
        line = json.dumps({"v": PROTOCOL_VERSION, "id": 1, "op": "open", **payload})
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert excinfo.value.code == "bad-request"
        assert repr(field) in excinfo.value.message

    def test_well_typed_open_fields_pass(self):
        line = json.dumps(
            {"v": PROTOCOL_VERSION, "id": 1, "op": "open", "program": "p",
             "seed": 3, "inputs": [10, -20]}
        )
        assert decode_request(line).payload == {"program": "p", "seed": 3, "inputs": [10, -20]}

    def test_args_must_be_strings(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request('{"args":[12],"id":1,"op":"why","session":"s1","v":2}')
        assert excinfo.value.code == "bad-request"

    def test_reserved_payload_key_rejected(self):
        with pytest.raises(ProtocolError):
            encode_request(Request(op="open", id=1, payload={"op": "sneaky", "program": "x"}))


class TestShapes:
    def test_request_line_property(self):
        assert Request(op="why", args=["average"]).line == "why average"
        assert Request(op="races").line == "races"

    def test_payload_survives_round_trip(self):
        request = Request(
            op="open",
            id=9,
            payload={"program": "p", "seed": 4, "inputs": [1, 2, 3]},
        )
        assert decode_request(encode_request(request)) == request

    def test_unicode_output_round_trip(self):
        response = Response(id=1, output="naïve — ünïcode\nline2")
        assert decode_response(encode_response(response)) == response
