"""Length-prefixed JSON frames over TCP.

The whole service plane speaks one frame shape: a 4-byte big-endian
length prefix followed by a UTF-8 JSON object.  Every request frame
carries an ``op`` field; every reply carries ``ok`` (bool) and, on
failure, ``error``.  Frames are small control messages — job *specs*
travel on the wire, job *state* travels through the shared
checkpoint store — so the frame cap is deliberately tight.

A clean EOF between frames returns ``None`` (the peer hung up); an EOF
mid-frame raises :class:`ProtocolError` (the peer died mid-sentence, and
the stream cannot be resynchronized).

Two readers share one check of a frame's header and body (cap, UTF-8,
JSON object), so they reject exactly the same frames:
:func:`recv_frame` blocks on a socket, and :class:`FrameDecoder` takes
whatever bytes a non-blocking socket had and yields the frames they
complete.
"""

import json
import socket
import struct

from repro.service.errors import ProtocolError

_HEADER = struct.Struct(">I")

#: Hard cap on one frame's JSON body (bytes).
MAX_FRAME = 4 * 1024 * 1024


def send_frame(sock, obj):
    """Serialize ``obj`` (a dict) and write one frame."""
    body = json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds cap {MAX_FRAME}")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _announced(head):
    """The body length a 4-byte header announces, within the cap."""
    (length,) = _HEADER.unpack(head)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds cap {MAX_FRAME}")
    return length


def _decode(body):
    """A frame body as the JSON object it must be."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def _recv_exact(sock, n, eof_ok):
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if eof_ok and not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    """Read one frame; ``None`` on clean EOF between frames."""
    head = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if head is None:
        return None
    return _decode(_recv_exact(sock, _announced(head), eof_ok=False))


class FrameDecoder:
    """Frames out of a byte stream that arrives in arbitrary pieces.

    ``feed()`` what a read returned, then call ``next_frame()`` until it
    returns ``None`` (no complete frame buffered).  A bad frame raises
    the :class:`ProtocolError` :func:`recv_frame` would, and an
    over-cap announcement does so as soon as its header is in.
    ``len()`` is the number of bytes buffered.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = bytearray()

    def __len__(self):
        return len(self._buf)

    def feed(self, data):
        self._buf += data

    def next_frame(self):
        buf = self._buf
        if len(buf) < _HEADER.size:
            return None
        end = _HEADER.size + _announced(buf[:_HEADER.size])
        if len(buf) < end:
            return None
        body = bytes(buf[_HEADER.size:end])
        del buf[:end]
        return _decode(body)


def request(endpoint, obj, timeout=5.0):
    """One-shot RPC: connect, send ``obj``, read one reply, close (the
    standby's liveness ping; clients keep their connection)."""
    with socket.create_connection(endpoint, timeout=timeout) as sock:
        sock.settimeout(timeout)
        send_frame(sock, obj)
        reply = recv_frame(sock)
    if reply is None:
        raise ProtocolError(f"{endpoint[0]}:{endpoint[1]} closed the "
                            "connection before replying")
    return reply


def parse_endpoint(text):
    """``"host:port"`` → ``(host, port)``."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"endpoint {text!r} is not host:port")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ProtocolError(f"endpoint {text!r} has a non-integer "
                            "port") from exc


def parse_endpoints(text):
    """Comma-separated endpoint list → ``[(host, port), ...]``."""
    endpoints = [parse_endpoint(part)
                 for part in text.split(",") if part.strip()]
    if not endpoints:
        raise ProtocolError(f"no endpoints in {text!r}")
    return endpoints
