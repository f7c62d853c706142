"""Protocol-corruption battery for the worker wire (flock.proc.framing).

Two layers of guarantee, mirroring test_sql_errors.py's golden-message
style for the wire instead of the grammar:

- golden messages: every structural fault — truncated header, truncated
  payload, bit-flipped bytes (CRC mismatch), oversized declared length,
  bad magic, mid-frame EOF — raises a typed
  :class:`~flock.errors.ProtocolError` naming the fault, and the CRC is
  always verified *before* any payload byte reaches ``pickle.loads``;
- liveness classification: EOF at a frame boundary is a
  :class:`~flock.errors.WorkerCrashError` (peer death), a missed socket
  deadline is a :class:`~flock.errors.WorkerTimeoutError` (hung worker),
  and any of the three marks the supervisor channel unhealthy so a
  desynced stream is never reused.

The Channel tests drive the exact parent-side runtime path against a
scripted peer over a plain socketpair; the end-to-end tests SIGKILL and
corrupt real workers.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import zlib

import pytest

from flock.errors import (
    FlockError,
    ProcError,
    ProtocolError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from flock.proc import proc_available
from flock.proc.framing import (
    MAGIC,
    MAX_FRAME_BYTES,
    dump_message,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)
from flock.proc.supervisor import Channel

pytestmark = pytest.mark.skipif(
    not proc_available(), reason="process backend needs POSIX socketpairs"
)

_HEADER = struct.Struct(">4sII")


def frame_bytes(payload: bytes) -> bytes:
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def sockpair():
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


# ----------------------------------------------------------------------
# Golden roundtrips
# ----------------------------------------------------------------------
class TestRoundtrip:
    def test_message_roundtrip(self):
        a, b = sockpair()
        for obj in [
            {"op": "ping"},
            ("ok", {"pid": 42}),
            ("err", FlockError("boom")),
            [1, 2.5, "three", None, b"\x00\xff"],
        ]:
            send_message(a, obj)
            got = recv_message(b)
            assert repr(got) == repr(obj)

    def test_empty_payload_frame(self):
        a, b = sockpair()
        send_frame(a, b"")
        assert recv_frame(b) == b""

    def test_clean_eof_at_boundary_is_none_when_allowed(self):
        a, b = sockpair()
        a.close()
        assert recv_frame(b, eof_ok=True) is None
        assert recv_message(b, eof_ok=True) is None


# ----------------------------------------------------------------------
# Structural corruption → typed ProtocolError, golden messages
# ----------------------------------------------------------------------
class TestCorruption:
    def test_bad_magic(self):
        a, b = sockpair()
        payload = dump_message({"op": "ping"})
        a.sendall(
            b"EVIL" + _HEADER.pack(MAGIC, len(payload),
                                   zlib.crc32(payload))[4:] + payload
        )
        with pytest.raises(ProtocolError) as err:
            recv_frame(b)
        for needle in ("bad frame magic", "b'EVIL'", "desynced"):
            assert needle in str(err.value)

    def test_oversized_declared_length_rejected_before_read(self):
        a, b = sockpair()
        # The declared length is absurd; the reader must reject it from
        # the 12 header bytes alone instead of trying to allocate/read.
        a.sendall(_HEADER.pack(MAGIC, MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(ProtocolError) as err:
            recv_frame(b)
        for needle in ("declared frame length", "cap", "refusing to read"):
            assert needle in str(err.value)

    def test_bit_flip_is_crc_mismatch_never_unpickled(self):
        a, b = sockpair()
        seen = []
        real_loads = pickle.loads

        payload = dump_message({"op": "evil"})
        wire = bytearray(frame_bytes(payload))
        wire[_HEADER.size + 3] ^= 0x40  # flip one payload bit
        a.sendall(bytes(wire))

        def spy(data, *args, **kwargs):
            seen.append(data)
            return real_loads(data, *args, **kwargs)

        pickle.loads = spy
        try:
            with pytest.raises(ProtocolError) as err:
                recv_message(b)
        finally:
            pickle.loads = real_loads
        assert seen == [], "corrupt payload reached pickle.loads"
        for needle in ("CRC mismatch", "refusing to deserialize"):
            assert needle in str(err.value)

    def test_truncated_header_is_mid_frame_eof(self):
        a, b = sockpair()
        a.sendall(frame_bytes(dump_message("x"))[:7])
        a.close()
        with pytest.raises(ProtocolError) as err:
            recv_frame(b)
        assert "EOF mid-frame" in str(err.value)
        assert "7 of 12 byte(s)" in str(err.value)

    def test_truncated_payload_is_mid_frame_eof(self):
        a, b = sockpair()
        payload = dump_message({"op": "ping", "pad": "y" * 64})
        a.sendall(frame_bytes(payload)[:-10])
        a.close()
        with pytest.raises(ProtocolError) as err:
            recv_frame(b)
        assert "EOF mid-frame" in str(err.value)

    def test_oversized_send_refused(self):
        a, _ = sockpair()
        with pytest.raises(ProtocolError):
            send_frame(a, b"x" * (MAX_FRAME_BYTES + 1))

    def test_crc_valid_but_undeserializable_payload(self):
        a, b = sockpair()
        send_frame(a, b"\x80\x05 this is not a pickle")
        with pytest.raises(ProtocolError) as err:
            recv_message(b)
        assert "failed to deserialize" in str(err.value)


# ----------------------------------------------------------------------
# Liveness classification
# ----------------------------------------------------------------------
class TestLiveness:
    def test_eof_at_boundary_is_worker_crash(self):
        a, b = sockpair()
        a.close()
        with pytest.raises(WorkerCrashError) as err:
            recv_frame(b)
        assert "closed by peer" in str(err.value)

    def test_deadline_is_worker_timeout(self):
        a, b = sockpair()
        b.settimeout(0.05)
        with pytest.raises(WorkerTimeoutError) as err:
            recv_frame(b)
        assert "deadline" in str(err.value)

    def test_all_proc_errors_are_flock_errors(self):
        for cls in (ProtocolError, WorkerCrashError, WorkerTimeoutError):
            assert issubclass(cls, ProcError)
            assert issubclass(cls, FlockError)


# ----------------------------------------------------------------------
# The supervisor channel against a scripted peer
# ----------------------------------------------------------------------
class Peer:
    """A fake worker: replies to each request with scripted raw bytes."""

    def __init__(self, sock, replies):
        self.sock = sock
        self.replies = list(replies)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        try:
            for reply in self.replies:
                recv_message(self.sock)  # consume the request
                if reply is None:
                    break  # hang up without replying
                self.sock.sendall(reply)
        except ProcError:
            pass
        finally:
            try:
                self.sock.close()
            except OSError:
                pass


class TestChannel:
    def test_ok_reply(self):
        a, b = sockpair()
        Peer(b, [frame_bytes(dump_message(("ok", 7)))])
        chan = Channel(a, timeout=5.0)
        assert chan.request("ping") == 7
        assert chan.healthy

    def test_err_reply_reraises_original_class_channel_stays_up(self):
        a, b = sockpair()
        Peer(b, [
            frame_bytes(dump_message(("err", FlockError("worker says no")))),
            frame_bytes(dump_message(("ok", "pong"))),
        ])
        chan = Channel(a, timeout=5.0)
        with pytest.raises(FlockError, match="worker says no"):
            chan.request("boom")
        # A typed error reply is a *healthy* protocol exchange: the next
        # request must still work on the same stream.
        assert chan.healthy
        assert chan.request("ping") == "pong"

    def test_corrupt_reply_marks_channel_unhealthy(self):
        a, b = sockpair()
        bad = bytearray(frame_bytes(dump_message(("ok", 1))))
        bad[-1] ^= 0x01
        Peer(b, [bytes(bad)])
        chan = Channel(a, timeout=5.0)
        with pytest.raises(ProtocolError):
            chan.request("ping")
        assert not chan.healthy
        # Once poisoned, the channel refuses further use outright.
        with pytest.raises(WorkerCrashError, match="channel is down"):
            chan.request("ping")

    def test_peer_hangup_marks_channel_unhealthy(self):
        a, b = sockpair()
        Peer(b, [None])
        chan = Channel(a, timeout=5.0)
        with pytest.raises(WorkerCrashError):
            chan.request("ping")
        assert not chan.healthy

    def test_silent_peer_times_out(self):
        a, b = sockpair()
        chan = Channel(a, timeout=0.1)  # peer never reads nor replies
        with pytest.raises(WorkerTimeoutError):
            chan.request("ping")
        assert not chan.healthy
        b.close()

    def test_malformed_reply_shape_is_protocol_error(self):
        a, b = sockpair()
        Peer(b, [frame_bytes(dump_message({"not": "a reply tuple"}))])
        chan = Channel(a, timeout=5.0)
        with pytest.raises(ProtocolError, match="malformed reply"):
            chan.request("ping")
        assert not chan.healthy

    def test_crash_before_reap_is_classified_by_exit_status(self):
        # The peer is gone but the kernel has not reaped it yet: poll()
        # still reports it running when the transport error surfaces.
        from flock.proc.supervisor import WorkerHandle

        class UnreapedProc:
            pid = 4242

            def poll(self):
                return None

            def wait(self, timeout=None):
                return -9

            def send_signal(self, sig):
                pass

        a, b = sockpair()
        Peer(b, [None])
        handle = object.__new__(WorkerHandle)
        handle.label, handle.proc, handle._closed = "w", UnreapedProc(), False
        handle.channel = Channel(a, timeout=5.0)
        with pytest.raises(WorkerCrashError, match="exited with status -9"):
            handle.request("ping")


# ----------------------------------------------------------------------
# End to end: real workers, real deaths
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_sigkill_mid_request_is_worker_crash(self, tmp_path):
        import os
        import signal

        import flock

        client = flock.connect(tmp_path / "db", shards=2, process=True)
        try:
            client.execute("CREATE TABLE t (k INT PRIMARY KEY)")
            client.execute("INSERT INTO t VALUES (1), (2), (3)")
            victim = client.cluster.shards[0]
            os.kill(victim.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError) as err:
                victim.database.execute("SELECT * FROM t")
            assert not victim.healthy
            # The crash error names the worker's fate — SIGKILL shows up
            # as a reaped exit status, a clean EOF, or ECONNRESET
            # depending on where the read was when the process died.
            assert any(
                needle in str(err.value)
                for needle in ("exited", "closed", "mid-read")
            )
            # Recovery path: restart the shard, data is still there.
            client.cluster.restart_shard(0)
            rows = client.execute("SELECT * FROM t ORDER BY k").rows()
            assert rows == [(1,), (2,), (3,)]
        finally:
            client.close()

    def test_worker_boot_failure_reraises_in_parent(self, tmp_path):
        from flock.proc.supervisor import WorkerHandle

        with pytest.raises(ValueError, match="unknown worker role"):
            WorkerHandle({
                "role": "nonsense", "name": "x", "path": str(tmp_path),
            })

    def test_hung_worker_killed_on_deadline(self, tmp_path):
        import flock

        client = flock.connect(tmp_path / "db", shards=1, process=True)
        try:
            shard = client.cluster.shards[0]
            # A 'sleep' fault parks the worker's WAL path well past the
            # request deadline; the supervisor must kill it, not wait.
            shard.set_fault("wal.pre_fsync", action="sleep",
                            delay_ms=30_000.0)
            with pytest.raises((WorkerTimeoutError, WorkerCrashError)):
                shard.handle.request(
                    "db_execute",
                    sql="CREATE TABLE slow (k INT PRIMARY KEY)",
                    _timeout=1.0,
                )
            assert not shard.healthy
            assert not shard.handle.alive  # killed, not lingering
        finally:
            client.close()
