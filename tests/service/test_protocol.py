"""Wire-protocol tests: framing, caps, EOF discipline, endpoints."""

import socket
import struct
import threading

import pytest

from repro.service import protocol
from repro.service.errors import ProtocolError


def _pair():
    return socket.socketpair()


class TestFraming:
    def test_round_trip(self):
        a, b = _pair()
        try:
            protocol.send_frame(a, {"op": "ping", "n": 3})
            assert protocol.recv_frame(b) == {"op": "ping", "n": 3}
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_order(self):
        a, b = _pair()
        try:
            for i in range(5):
                protocol.send_frame(a, {"i": i})
            assert [protocol.recv_frame(b)["i"] for _ in range(5)] == list(
                range(5))
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = _pair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = _pair()
        try:
            # Announce 100 bytes, deliver 3, hang up.
            a.sendall(struct.pack(">I", 100) + b"abc")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = _pair()
        try:
            a.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="exceeds cap"):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_send_rejected(self):
        a, b = _pair()
        try:
            with pytest.raises(ProtocolError, match="exceeds cap"):
                protocol.send_frame(a, {"x": "y" * protocol.MAX_FRAME})
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = _pair()
        try:
            body = b"[1,2,3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="JSON object"):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_frame_rejected(self):
        a, b = _pair()
        try:
            body = b"\xff\xfe{"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="undecodable"):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()


class TestRequest:
    def test_one_shot_rpc(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        endpoint = server.getsockname()

        def serve():
            conn, _ = server.accept()
            msg = protocol.recv_frame(conn)
            protocol.send_frame(conn, {"ok": True, "echo": msg})
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            reply = protocol.request(endpoint, {"op": "ping"}, timeout=5.0)
            assert reply["ok"] and reply["echo"] == {"op": "ping"}
        finally:
            thread.join(timeout=5.0)
            server.close()

    def test_hangup_before_reply_raises(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        endpoint = server.getsockname()

        def serve():
            conn, _ = server.accept()
            protocol.recv_frame(conn)
            conn.close()    # no reply

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="before replying"):
                protocol.request(endpoint, {"op": "ping"}, timeout=5.0)
        finally:
            thread.join(timeout=5.0)
            server.close()


class TestEndpoints:
    def test_parse_endpoint(self):
        assert protocol.parse_endpoint("10.0.0.1:9618") == ("10.0.0.1",
                                                            9618)

    def test_parse_endpoints_list(self):
        assert protocol.parse_endpoints("a:1,b:2") == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize("bad", ["nope", ":1", "h:", "h:abc", ""])
    def test_bad_endpoints_rejected(self, bad):
        with pytest.raises(ProtocolError):
            protocol.parse_endpoints(bad)


def _frame(body):
    return struct.pack(">I", len(body)) + body


#: Byte streams both readers must refuse, each ending in its bad frame.
MALFORMED = {
    "oversized": struct.pack(">I", protocol.MAX_FRAME + 1),
    "array": _frame(b"[1,2,3]"),
    "string": _frame(b'"ping"'),
    "not utf-8": _frame(b"\xff\xfe{"),
    "not json": _frame(b"{op: ping}"),
    "after a good frame": _frame(b'{"op":"ping"}') + _frame(b"null"),
}


class TestFrameDecoder:
    """The buffered reader the coordinator's loop uses against the
    blocking one everybody else uses: same frames, same refusals."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_both_readers_refuse_a_bad_frame_alike(self, name):
        data = MALFORMED[name]
        a, b = _pair()
        try:
            a.sendall(data)
            with pytest.raises(ProtocolError) as blocking:
                while True:
                    protocol.recv_frame(b)
        finally:
            a.close()
            b.close()
        decoder = protocol.FrameDecoder()
        with pytest.raises(ProtocolError) as buffered:
            for i in range(len(data)):      # a byte at a time
                decoder.feed(data[i:i + 1])
                while decoder.next_frame() is not None:
                    pass
        assert str(buffered.value) == str(blocking.value)

    def test_frames_split_anywhere_decode_in_order(self):
        frames = [{"op": "submit", "i": i, "pad": "x" * (i * 37)}
                  for i in range(40)]
        a, b = _pair()
        try:
            for frame in frames:
                protocol.send_frame(a, frame)
            a.shutdown(socket.SHUT_WR)
            stream = b""
            while chunk := b.recv(65536):
                stream += chunk
        finally:
            a.close()
            b.close()
        decoder = protocol.FrameDecoder()
        out = []
        for start in range(0, len(stream), 7):
            decoder.feed(stream[start:start + 7])
            while (frame := decoder.next_frame()) is not None:
                out.append(frame)
        assert out == frames
        assert len(decoder) == 0

    def test_a_partial_frame_waits(self):
        decoder = protocol.FrameDecoder()
        data = _frame(b'{"op":"ping"}')
        decoder.feed(data[:-1])
        assert decoder.next_frame() is None
        assert len(decoder) == len(data) - 1
        decoder.feed(data[-1:])
        assert decoder.next_frame() == {"op": "ping"}
