"""Unit tests of the shared newline-JSON wire framing."""

from __future__ import annotations

import io
import json
import socket
import sys

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import parse_executor_spec, split_tcp_address
from repro.distributed import wire
from repro.errors import ExecutorError, ProtocolError

#: Finite doubles at the edges of the format, mixed into the drawn ones.
EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -5e-324,
    2.225073858507201e-308,  # largest subnormal
    sys.float_info.min,  # smallest normal
    sys.float_info.max,
    -sys.float_info.max,
    1e16,
    1e-5,
]

#: Finite floats nested in dicts and lists, as response bodies hold them.
NESTED_FLOATS = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=24,
)


def _hexed(value):
    """``value`` with every float replaced by its exact ``float.hex``."""
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hexed(item) for item in value]
    return value.hex()  # raises on anything that did not decode as a float


class TestFraming:
    def test_round_trip(self):
        buffer = io.BytesIO()
        wire.write_message(buffer, {"op": "hello", "pid": 7})
        wire.write_message(buffer, {"op": "ping"})
        buffer.seek(0)
        assert wire.read_message(buffer) == {"op": "hello", "pid": 7}
        assert wire.read_message(buffer) == {"op": "ping"}
        assert wire.read_message(buffer) is None  # EOF

    def test_one_message_per_line(self):
        buffer = io.BytesIO()
        wire.write_message(buffer, {"a": 1})
        assert buffer.getvalue().count(b"\n") == 1

    def test_blank_line_reads_as_none(self):
        assert wire.read_frame(io.BytesIO(b"\n")) is None
        assert wire.read_frame(io.BytesIO(b"")) is None

    def test_garbage_frame_reads_as_none(self):
        assert wire.read_message(io.BytesIO(b"not json\n")) is None
        assert wire.read_message(io.BytesIO(b"[1, 2]\n")) is None  # not a dict

    def test_read_frame_survives_connection_error(self):
        class Dead:
            def readline(self, *args):
                raise ConnectionResetError

        assert wire.read_frame(Dead()) is None


class TestCodec:
    """The codec writes every finite float so it decodes to the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(value=NESTED_FLOATS)
    def test_finite_floats_survive_bit_for_bit(self, value):
        buffer = io.BytesIO()
        wire.write_message(buffer, {"value": value})
        frame = buffer.getvalue()
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        expected = _hexed(value)
        assert _hexed(json.loads(frame)["value"]) == expected
        assert _hexed(orjson.loads(frame)["value"]) == expected
        buffer.seek(0)
        assert _hexed(wire.read_message(buffer)["value"]) == expected
        assert wire.read_message(buffer) is None

    def test_edge_floats_keep_their_sign_and_subnormal_bits(self):
        buffer = io.BytesIO()
        wire.write_message(buffer, {"value": EDGE_FLOATS})
        decoded = json.loads(buffer.getvalue())["value"]
        assert [x.hex() for x in decoded] == [x.hex() for x in EDGE_FLOATS]

    def test_encode_message_is_the_written_frame(self):
        message = {"op": "result", "rows": [1.5, -0.0, 7], "ok": True}
        buffer = io.BytesIO()
        wire.write_message(buffer, message)
        assert buffer.getvalue() == wire.encode_message(message)
        assert wire.decode_message(wire.encode_message(message)) == message


class TestPayloads:
    def test_payload_round_trip_preserves_arrays_bitwise(self):
        rng = np.random.default_rng(3)
        original = {"matrix": rng.random((16, 16)), "nnz": 12}
        decoded = wire.decode_payload(wire.encode_payload(original))
        np.testing.assert_array_equal(decoded["matrix"], original["matrix"])
        assert decoded["matrix"].dtype == original["matrix"].dtype
        assert decoded["nnz"] == 12

    def test_payload_is_json_safe_ascii(self):
        text = wire.encode_payload({"x": np.arange(5)})
        assert isinstance(text, str)
        text.encode("ascii")  # must not raise

    def test_exceptions_round_trip(self):
        error = ValueError("bad shard")
        decoded = wire.decode_payload(wire.encode_payload(error))
        assert isinstance(decoded, ValueError)
        assert str(decoded) == "bad shard"


class TestLimits:
    def test_oversized_frame_raises_protocol_error(self):
        buffer = io.BytesIO(b"x" * 128 + b"\n")
        with pytest.raises(ProtocolError, match="frame exceeds"):
            wire.read_frame(buffer, max_bytes=64)

    def test_frame_at_the_limit_passes(self):
        buffer = io.BytesIO()
        wire.write_message(buffer, {"op": "ping"})
        limit = buffer.tell()
        buffer.seek(0)
        assert wire.read_message(buffer, max_bytes=limit) == {"op": "ping"}

    def test_zero_disables_the_frame_cap(self):
        buffer = io.BytesIO(b'{"op": "ping"}\n')
        assert wire.read_message(buffer, max_bytes=0) == {"op": "ping"}

    def test_payload_decompression_cap(self):
        # Highly compressible on the wire, huge decompressed: the cap
        # must bound the *decompressed* size, or a small frame could
        # still balloon the hub's memory.
        text = wire.encode_payload(np.zeros(1_000_000, dtype=np.uint8))
        with pytest.raises(ProtocolError, match="decompresses past"):
            wire.decode_payload(text, max_bytes=64 * 1024)
        decoded = wire.decode_payload(text)  # default cap: fine
        assert decoded.nbytes == 1_000_000

    def test_invalid_base64_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            wire.decode_payload("!!chaos-corrupt!!")

    def test_env_overrides_for_caps(self, monkeypatch):
        monkeypatch.setenv("PHONOCMAP_MAX_FRAME_BYTES", "1234")
        monkeypatch.setenv("PHONOCMAP_MAX_PAYLOAD_BYTES", "5678")
        assert wire.max_frame_bytes() == 1234
        assert wire.max_payload_bytes() == 5678
        monkeypatch.delenv("PHONOCMAP_MAX_FRAME_BYTES")
        monkeypatch.delenv("PHONOCMAP_MAX_PAYLOAD_BYTES")
        assert wire.max_frame_bytes() == wire.DEFAULT_MAX_FRAME_BYTES
        assert wire.max_payload_bytes() == wire.DEFAULT_MAX_PAYLOAD_BYTES

    def test_read_timeout_propagates_not_swallowed(self):
        # A silent peer is not a gone peer: TimeoutError must reach the
        # caller (heartbeats and deadlines depend on telling the two
        # apart), while disconnects keep reading as None.
        left, right = socket.socketpair()
        try:
            right.settimeout(0.05)
            rfile = right.makefile("rb")
            with pytest.raises(TimeoutError):
                wire.read_frame(rfile)
            left.close()
            assert wire.read_frame(rfile) is None  # EOF after the peer left
        finally:
            right.close()


class TestExecutorSpecs:
    def test_defaults_and_passthrough(self):
        assert parse_executor_spec(None) == "local"
        assert parse_executor_spec("local") == "local"
        assert parse_executor_spec("inline") == "inline"

    def test_tcp_normalization(self):
        assert parse_executor_spec("tcp://host:99") == "tcp://host:99"

    def test_rejects_unknown_specs(self):
        with pytest.raises(ExecutorError):
            parse_executor_spec("udp://host:99")
        with pytest.raises(ExecutorError):
            parse_executor_spec("threads")

    def test_split_tcp_address(self):
        assert split_tcp_address("host:99") == ("host", 99)
        assert split_tcp_address("tcp://host:99") == ("host", 99)
        with pytest.raises(ExecutorError):
            split_tcp_address("no-port")
        with pytest.raises(ExecutorError):
            split_tcp_address("host:nan")
        with pytest.raises(ExecutorError):
            split_tcp_address("host:70000")
