"""Newline-JSON framing shared by the service and the distributed stack.

One message per line: a JSON object, UTF-8 encoded, terminated by
``\\n``. This is the PR 6 service framing, factored out so the
``phonocmap worker`` / scheduler link (:mod:`repro.distributed.worker`,
:mod:`repro.distributed.scheduler`) and the unix-socket service
transport (:mod:`repro.service.server`) speak the same protocol with the
same code.

Codec
-----
This module is the one place that imports ``orjson``: every frame
:func:`write_message` / :func:`encode_message` writes and every frame
:func:`read_message` / :func:`decode_message` reads goes through it.
Service responses are mostly float arrays (a ``distribution`` response
carries 2 x 2,048 of them), and stdlib ``json`` formats each through
``float.__repr__``. orjson writes the shortest representation that
round-trips, so every finite float (``-0.0`` and subnormals included)
decodes to the same bits through ``json.loads`` and ``orjson.loads``
alike, at a small fraction of the cost.

The codec is for bytes this package wrote. Bytes a *caller* wrote keep
stdlib ``json``: the daemon decodes requests with it
(:meth:`repro.service.core.ServiceCore.handle_json`) and the client
encodes them with it, because orjson reads an integer beyond 64 bits as
a float (a ``seed`` of ``2**64 + 1`` would silently change), refuses
``NaN``, ``Infinity`` and ``1e400`` (which must reach the request
schema's typed 400s), and cannot encode integers beyond 64 bits.
orjson's own limits on what it encodes (``str`` keys only, no lone
surrogates, no integers beyond 64 bits, no numpy scalars, and ``null``
for a non-finite float) therefore bind every message body: response
builders convert numpy values with ``float()`` / ``int()`` /
``tolist()``, and the service's tests decode each response kind with
stdlib ``json`` against the body the core returned.

Binary values (pickled problems, task arguments, results and errors)
ride inside the JSON envelope as zlib-compressed, base64-encoded pickle
payloads — :func:`encode_payload` / :func:`decode_payload`.
JSON-with-base64 is deliberate over a binary framing: it keeps the
protocol debuggable with ``nc`` (msgpack is not a dependency). No
coupling model crosses the link — workers resolve models by cache key
themselves — so the largest payloads are a problem (tens of KB) and the
rows and metric tables of a big shard.

Robustness limits
-----------------
Both framing layers are bounded so a malformed or hostile peer cannot
make the reader allocate unbounded memory:

* :func:`read_frame` / :func:`read_message` cap the raw line length at
  ``max_bytes`` (default :func:`max_frame_bytes`, 64 MiB, env
  ``PHONOCMAP_MAX_FRAME_BYTES``); an over-long frame raises
  :class:`~repro.errors.ProtocolError` instead of buffering forever.
* :func:`decode_payload` caps the *decompressed* pickle size at
  ``max_bytes`` (default :func:`max_payload_bytes`, 1 GiB, env
  ``PHONOCMAP_MAX_PAYLOAD_BYTES``) via an incremental ``decompressobj``,
  so a small zlib bomb cannot expand past the cap before being rejected.

Socket timeouts propagate: :func:`read_frame` translates connection
errors to ``None`` (peer gone — nothing more to say) but re-raises
:class:`TimeoutError`, because a *silent* peer is a different condition
from a *gone* one — the scheduler's heartbeat / task-deadline machinery
keys on exactly that distinction.

Security note: payloads are **pickle** and are only ever exchanged
between a scheduler and workers that authenticated with the shared
token (``PHONOCMAP_AUTH_TOKEN`` — see
:mod:`repro.distributed.scheduler`) on hosts the same user controls;
the worker CLI refuses to listen on public interfaces by default for
the same reason.
"""

from __future__ import annotations

import base64
import os
import pickle
import zlib
from typing import Any, Optional

import orjson

from repro.errors import ProtocolError

__all__ = [
    "decode_message",
    "decode_payload",
    "encode_message",
    "encode_payload",
    "max_frame_bytes",
    "max_payload_bytes",
    "read_frame",
    "read_message",
    "write_message",
]

#: Default raw-frame (line) length cap; env ``PHONOCMAP_MAX_FRAME_BYTES``
#: overrides. Large enough for sharded metric tables and explicit
#: mapping batches, small enough that one hostile line cannot OOM a hub.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default decompressed-payload cap; env ``PHONOCMAP_MAX_PAYLOAD_BYTES``
#: overrides. Well above what the hub and workers exchange, because task
#: arguments and results grow with shard rows (one million mpeg4 rows
#: are 96 MB of int64 assignments); the cap exists to stop a small zlib
#: bomb from expanding without bound, not to size work.
DEFAULT_MAX_PAYLOAD_BYTES = 1024 * 1024 * 1024


def _env_int(name: str, default: int) -> int:
    """An integer environment override, falling back on bad values."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def max_frame_bytes() -> int:
    """The effective raw-frame length cap (env-overridable)."""
    return _env_int("PHONOCMAP_MAX_FRAME_BYTES", DEFAULT_MAX_FRAME_BYTES)


def max_payload_bytes() -> int:
    """The effective decompressed-payload cap (env-overridable)."""
    return _env_int("PHONOCMAP_MAX_PAYLOAD_BYTES", DEFAULT_MAX_PAYLOAD_BYTES)


def read_frame(rfile, max_bytes: Optional[int] = None) -> Optional[bytes]:
    """Read one raw frame (line) from a buffered reader, bounded.

    Parameters
    ----------
    rfile : file-like
        Buffered binary reader (a socket ``makefile``).
    max_bytes : int, optional
        Frame length cap; ``None`` uses :func:`max_frame_bytes`, ``0``
        disables the cap (trusted same-process pipes only).

    Returns
    -------
    bytes or None
        The frame, or ``None`` on EOF, a blank line (keep-alive /
        polite hang-up), or a connection-level error — all the cases
        where the peer has nothing more to say on this connection.

    Raises
    ------
    ProtocolError
        The peer sent a line longer than ``max_bytes``.
    TimeoutError
        The underlying socket timed out — the peer is *silent*, not
        gone; callers (heartbeats, task deadlines) decide what that
        means.
    """
    limit = max_frame_bytes() if max_bytes is None else int(max_bytes)
    try:
        if limit:
            line = rfile.readline(limit + 1)
        else:
            line = rfile.readline()
    except TimeoutError:
        raise  # silence is a first-class signal, not a hang-up
    except (ConnectionError, OSError):
        return None
    if limit and len(line) > limit:
        raise ProtocolError(
            f"frame exceeds the {limit}-byte cap "
            f"(set PHONOCMAP_MAX_FRAME_BYTES to raise it)"
        )
    if not line or not line.strip():
        return None
    return line


def read_message(rfile, max_bytes: Optional[int] = None) -> Optional[dict]:
    """Read and decode one JSON message; ``None`` on EOF or bad frame.

    Propagates :class:`~repro.errors.ProtocolError` (oversized frame)
    and :class:`TimeoutError` (silent peer) from :func:`read_frame`.
    """
    frame = read_frame(rfile, max_bytes=max_bytes)
    if frame is None:
        return None
    try:
        message = decode_message(frame)
    except ValueError:
        return None
    return message if isinstance(message, dict) else None


def decode_message(data) -> Any:
    """Decode one JSON document this package's codec wrote.

    Raises :class:`ValueError` (``orjson.JSONDecodeError``) on bytes
    that are not JSON.
    """
    return orjson.loads(data)


def encode_message(message: dict) -> bytes:
    """One message as compact JSON bytes, newline-terminated.

    Raises :class:`TypeError` (``orjson.JSONEncodeError``) on a value
    the codec cannot write; see the module docstring.
    """
    return orjson.dumps(message, option=orjson.OPT_APPEND_NEWLINE)


def write_message(wfile, message: dict) -> None:
    """Encode and write one JSON message, flushed.

    Raises the underlying :class:`OSError` on a dead peer — callers
    own the decision between requeue (scheduler) and hang-up (server).
    An unencodable message raises :class:`TypeError` before any byte
    is written.
    """
    wfile.write(encode_message(message))
    wfile.flush()


def encode_payload(obj: Any) -> str:
    """Pack an arbitrary picklable object into a JSON-safe string."""
    return base64.b64encode(
        zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    ).decode("ascii")


def decode_payload(text: str, max_bytes: Optional[int] = None) -> Any:
    """Inverse of :func:`encode_payload`, with a decompression cap.

    Parameters
    ----------
    text : str
        The base64/zlib/pickle payload string.
    max_bytes : int, optional
        Decompressed-size cap; ``None`` uses :func:`max_payload_bytes`,
        ``0`` disables the cap.

    Raises
    ------
    ProtocolError
        The payload is not valid base64/zlib, or its decompressed size
        exceeds the cap (checked incrementally — a zlib bomb is
        rejected without materializing past the cap).
    """
    limit = max_payload_bytes() if max_bytes is None else int(max_bytes)
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as error:
        raise ProtocolError(f"undecodable payload: {error}") from None
    try:
        if limit:
            decompressor = zlib.decompressobj()
            data = decompressor.decompress(raw, limit)
            if not decompressor.eof:
                raise ProtocolError(
                    f"payload decompresses past the {limit}-byte cap "
                    f"(set PHONOCMAP_MAX_PAYLOAD_BYTES to raise it)"
                )
        else:
            data = zlib.decompress(raw)
    except zlib.error as error:
        raise ProtocolError(f"undecodable payload: {error}") from None
    return pickle.loads(data)
