"""Newline-JSON wire protocol: encode/decode, rejection paths, and the
front end's read decoder against ``decode_line``."""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import frontend
from repro.serve.frontend import decode_read
from repro.serve.protocol import MAX_LINE, ProtocolError, decode_line, encode


class TestEncode:
    def test_compact_sorted_newline_terminated(self):
        line = encode({"b": 1, "a": 2})
        assert line == b'{"a":2,"b":1}\n'

    def test_roundtrip(self):
        msg = {"op": "submit", "size": 1.5, "arrival": 2.0}
        assert decode_line(encode(msg)) == msg


class TestDecodeLine:
    def test_rejects_over_long_line(self):
        line = json.dumps({"op": "x", "pad": "y" * MAX_LINE}).encode()
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_line(line)

    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_line(b"{ nope\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2]\n")

    def test_rejects_missing_or_non_string_op(self):
        with pytest.raises(ProtocolError, match="op"):
            decode_line(b"{}\n")
        with pytest.raises(ProtocolError, match="op"):
            decode_line(b'{"op": 7}\n')


# ----------------------------------------------------------------------
# the front end's read decoder against decode_line, line by line
# ----------------------------------------------------------------------


def outcome(decoded):
    """A decoded line in a comparable form: ``repr`` keeps key order, the
    difference between ``1`` and ``1.0`` and NaN (which is not equal to
    itself); an error compares by its class and text."""
    if isinstance(decoded, ProtocolError):
        return ("error", type(decoded).__name__, str(decoded))
    return ("request", type(decoded).__name__, repr(decoded))


def by_decode_line(line):
    """What ``decode_line`` makes of ``line`` once its newline is back."""
    try:
        return outcome(decode_line(line + b"\n"))
    except ProtocolError as exc:
        return outcome(exc)


def assert_same_as_decode_line(lines):
    """``decode_read`` of the block, and of each line alone, equals
    ``decode_line`` on every line."""
    expected = [by_decode_line(line) for line in lines]
    assert [outcome(d) for d in decode_read(lines)] == expected
    for line, want in zip(lines, expected):
        assert [outcome(d) for d in decode_read([line])] == [want], line


SUBMIT = b'{"op":"submit","size":1.5,"arrival":2.0}'

#: the lines where a parse of the read could part from ``decode_line``.
NAMED_LINES = {
    "crlf": b'{"op":"status"}\r',
    "leading-space": b' {"op":"status"}',
    "leading-tab": b'\t{"op":"status"}',
    "trailing-space": b'{"op":"status"} ',
    "trailing-tab": b'{"op":"status"}\t',
    "inner-space": b'{ "op" : "status" }',
    "utf8-text": '{"op":"submit","note":"größe ≥ 1"}'.encode(),
    "utf8-op": '{"op":"stätus"}'.encode(),
    "utf8-bom": b'\xef\xbb\xbf{"op":"status"}',
    "utf16-looking": b'{\x00"\x00o\x00p\x00"\x00:\x00"\x00s\x00"\x00}\x00',
    "nul-after-brace": b"{\x00}",
    "nan": b'{"op":"submit","size":NaN,"arrival":1.0}',
    "infinity": b'{"op":"submit","size":Infinity,"arrival":-Infinity}',
    "big-int": b'{"op":"submit","size":1' + b"0" * 400 + b',"arrival":1}',
    "too-many-digits": b'{"op":"submit","size":1' + b"0" * 5000 + b"}",
    "duplicate-keys": b'{"op":"drain","op":"status","size":1,"size":2}',
    "duplicate-op-not-string": b'{"op":"status","op":7}',
    "u-escapes": b'{"op":"st\\u0061tus","x":"\\ud800\\u00e9"}',
    "raw-tab-in-string": b'{"op":"sta\ttus"}',
    "bare-array": b"[1]",
    "bare-string": b'"op"',
    "bare-number": b"12",
    "empty": b"",
    "only-space": b"   ",
    "no-op": b'{"size":1.0}',
    "op-not-string": b'{"op":["submit"]}',
    "op-null": b'{"op":null}',
    "extra-data": SUBMIT + b"x",
    "two-objects": SUBMIT + SUBMIT,
    "truncated": SUBMIT[:-1],
    "unterminated-string": b'{"op":"status',
    "nested": b'{"op":"submit_batch","jobs":[[1.0,2.0],[3,4,5]],"meta":{"a":[{}]}}',
    "max-line": b'{"op":"status","pad":"' + b"x" * (MAX_LINE - 25) + b'"}',
    "max-line-plus-one": b'{"op":"status","pad":"' + b"x" * (MAX_LINE - 24) + b'"}',
}


def test_named_lines_have_the_right_lengths():
    assert len(NAMED_LINES["max-line"]) + 1 == MAX_LINE
    assert len(NAMED_LINES["max-line-plus-one"]) + 1 == MAX_LINE + 1


@pytest.mark.parametrize("name", sorted(NAMED_LINES))
def test_named_line_decodes_as_decode_line(name):
    line = NAMED_LINES[name]
    assert_same_as_decode_line([line])
    assert_same_as_decode_line([SUBMIT, line, SUBMIT])


def test_named_lines_in_one_read():
    assert_same_as_decode_line(list(NAMED_LINES.values()))


def test_the_read_decoder_takes_the_plain_lines_itself():
    """The lines ``decode_line`` would accept as they are, compact or not,
    are parsed in the scanner pass; the fallback sees none of them."""
    lines = [SUBMIT, b'{"op":"status"}', b'{ "op" : "drain" }', NAMED_LINES["max-line"]]
    with mock.patch.object(frontend, "decode_line", side_effect=AssertionError):
        decoded = decode_read(lines)
    assert [d["op"] for d in decoded] == ["submit", "status", "drain", "status"]


def test_lines_invalid_alone_stay_invalid_together():
    # Joined with a comma into one array, these two parse as two objects:
    # the first line's open string swallows the join.  Each line on its
    # own is invalid JSON, and stays so in one read.
    first, second = b'{"a":"x}', b'{y}"},{"z":1}'
    assert json.loads(b"[" + first + b"," + second + b"]") == [
        {"a": "x},{y}"},
        {"z": 1},
    ]
    assert_same_as_decode_line([first, second])
    for decoded in decode_read([first, second]):
        assert isinstance(decoded, ProtocolError)
        assert str(decoded).startswith("invalid JSON")


#: JSON values of every kind, including the ones only Python's decoder
#: accepts (NaN, infinities) and integers too big for a float.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def request_lines(draw):
    """A request-shaped line: a JSON object (with or without an ``op``)
    dumped in a random style, then possibly cut or padded."""
    obj = draw(st.dictionaries(st.text(max_size=6), json_values, max_size=4))
    if draw(st.booleans()):
        obj["op"] = draw(st.sampled_from(["submit", "status", "drain", "x"]) | json_values)
    text = json.dumps(
        obj,
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " :")])),
    )
    line = text.encode("utf-8", "surrogatepass")
    cut = draw(st.integers(min_value=0, max_value=len(line)))
    if draw(st.booleans()):
        line = line[:cut]
    line = draw(st.sampled_from([b"", b" ", b"\t", b"\xef\xbb\xbf"])) + line
    line += draw(st.sampled_from([b"", b" ", b"\r", b"}", b"{}"]))
    return line.replace(b"\n", b"")


#: arbitrary byte lines, and request-shaped ones.
any_lines = st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")) | request_lines()


@settings(max_examples=300, deadline=None)
@given(st.lists(any_lines, max_size=8))
def test_any_read_decodes_as_decode_line(lines):
    assert_same_as_decode_line(lines)
