"""Protocol robustness: every malformed input maps to a structured
error, and nothing a client does — hostile frames, half-written
frames, vanishing mid-compile — wedges the daemon."""

import socket
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import PROTOCOL_VERSION, request_frame
from repro.service.server import ServiceThread
from repro.verify.progen import FuzzProgramGenerator


def send_and_expect(client: ServiceClient, raw: bytes, code: str):
    client.send_raw(raw)
    response = client.recv_response()
    assert response["ok"] is False
    assert response["error"]["code"] == code
    return response


class TestMalformedFrames:
    def test_garbage_then_connection_survives(self, client):
        send_and_expect(client, b"this is not json\n", "bad-json")
        assert client.ping()["pong"] is True

    def test_non_object_frame(self, client):
        response = send_and_expect(client, b"[1, 2, 3]\n", "not-object")
        assert response["id"] is None
        assert client.ping()["pong"] is True

    def test_missing_id(self, client):
        send_and_expect(
            client, b'{"type": "ping", "version": 1}\n', "missing-id"
        )
        assert client.ping()["pong"] is True

    def test_version_mismatch(self, client):
        response = send_and_expect(
            client,
            b'{"id": 9, "type": "ping", "version": 99}\n',
            "version-mismatch",
        )
        assert response["id"] == 9  # still correlated for the client
        assert client.ping()["pong"] is True

    def test_unknown_type(self, client):
        send_and_expect(
            client,
            b'{"id": 1, "type": "rm-rf", "version": 1}\n',
            "unknown-type",
        )
        assert client.ping()["pong"] is True

    def test_missing_field(self, client):
        send_and_expect(
            client,
            b'{"id": 1, "type": "compile", "version": 1}\n',
            "missing-field",
        )
        assert client.ping()["pong"] is True

    def test_bad_field_type(self, client):
        send_and_expect(
            client,
            b'{"id": 1, "type": "compile", "version": 1, '
            b'"session": 42}\n',
            "bad-field",
        )
        assert client.ping()["pong"] is True

    def test_blank_lines_ignored(self, client):
        client.send_raw(b"\n\n")
        assert client.ping()["pong"] is True

    def test_many_bad_frames_then_work(self, client):
        for _ in range(20):
            send_and_expect(client, b"}{\n", "bad-json")
        session = client.open_session(
            {"m": "int main() { print(1); return 0; }"}
        )["session"]
        assert client.compile(session)["fingerprint"]
        client.close_session(session)


class TestSessionErrors:
    def test_unknown_session(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.compile("nope")
        assert excinfo.value.code == "unknown-session"

    def test_unknown_allocator_opens_no_session(self, service, client):
        daemon = service.service
        opened, live = daemon.sessions_opened, len(daemon.sessions)
        with pytest.raises(ServiceError) as excinfo:
            client.open_session(
                {"m": "int main() { print(1); return 0; }"},
                allocator="bogus",
            )
        assert excinfo.value.code == "bad-field"
        assert "bogus" in excinfo.value.message
        assert (daemon.sessions_opened, len(daemon.sessions)) == (
            opened, live
        )

    def test_compile_error_is_structured(self, client):
        session = client.open_session(
            {"m": "int main( { this is not tiny-c"}
        )["session"]
        with pytest.raises(ServiceError) as excinfo:
            client.compile(session)
        assert excinfo.value.code == "internal-error"
        # The failure belongs to the client, not the daemon: the
        # session is intact and a fixed source compiles.
        client.edit(session, "m", "int main() { print(2); return 0; }")
        assert client.compile(session)["fingerprint"]
        client.close_session(session)


class TestOversizedFrames:
    def test_oversized_payload(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_MAX_FRAME", "4096")
        with ServiceThread(unix_path=str(tmp_path / "small.sock")) as handle:
            path = handle.service.unix_path
            with ServiceClient.connect_unix(path) as conn:
                try:
                    conn.send_raw(request_frame(
                        1, "open_session", sources={"m": "x" * 100_000}
                    ))
                except BrokenPipeError:
                    # The server detects the overflow, replies, and
                    # hangs up while we are still sending; the reply
                    # is already buffered on our side.
                    pass
                response = conn.recv_response()
                assert response["ok"] is False
                assert response["error"]["code"] == "frame-too-large"
                # The stream is desynced past repair, so the server
                # hangs up on this connection...
                with pytest.raises(ConnectionError):
                    conn.send_raw(
                        request_frame(2, "ping") * 200
                    )  # enough traffic to surface the close
                    while True:
                        conn.recv_response()
            # ...but the daemon itself is fine.
            with ServiceClient.connect_unix(path) as fresh:
                assert fresh.ping()["pong"] is True

    def test_frame_just_under_limit_ok(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_MAX_FRAME", "4096")
        with ServiceThread(unix_path=str(tmp_path / "ok.sock")) as handle:
            with ServiceClient.connect_unix(
                handle.service.unix_path
            ) as conn:
                assert conn.ping()["pong"] is True


class TestDisconnects:
    def test_truncated_frame_then_eof(self, service):
        """A client dying mid-frame leaves nothing to answer; the
        daemon just reaps the connection."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(service.service.unix_path)
        sock.sendall(b'{"id": 1, "type": "pi')  # no newline, ever
        sock.close()
        with ServiceClient.connect_unix(
            service.service.unix_path
        ) as fresh:
            assert fresh.ping()["pong"] is True

    def test_disconnect_mid_compile(self, service):
        """A client that fires a compile and vanishes: the job still
        completes against the session, and the daemon stays healthy."""
        sources = FuzzProgramGenerator(31).generate()
        with ServiceClient.connect_unix(
            service.service.unix_path
        ) as conn:
            session = conn.open_session(dict(sources))["session"]
        # Fire-and-vanish on a raw socket: request sent, reply unread.
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(service.service.unix_path)
        sock.sendall(request_frame(1, "compile", session=session))
        sock.close()
        # The daemon finishes the abandoned job; its result lands on
        # the session state where any other connection can see it.
        deadline = time.monotonic() + 120
        with ServiceClient.connect_unix(
            service.service.unix_path
        ) as fresh:
            while time.monotonic() < deadline:
                stats = fresh.stats(session)
                if stats["compiles"] == 1:
                    break
                time.sleep(0.1)
            assert stats["compiles"] == 1
            assert stats["last_fingerprint"]
            fresh.close_session(session)

    def test_pipelined_requests_one_connection(self, client):
        """Several frames shipped before any reply is read: responses
        come back in order, ids intact."""
        frames = b"".join(
            request_frame(n, "ping") for n in range(1, 6)
        )
        client.send_raw(frames)
        for expected in range(1, 6):
            response = client.recv_response()
            assert response["id"] == expected
            assert response["ok"] is True
