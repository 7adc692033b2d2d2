import io
import re
import socket
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from corrlab.dist import parse_rational, rational_text
from corrlab.errors import ProtocolError
from corrlab.ghz import (
    EXPECTED_PRODUCT,
    REGIME_ORDER,
    default_assignment,
    default_schedule,
    run_all_regimes,
)
from corrlab.ghznet import (
    MAX_FRAME,
    SessionTranscript,
    WireMessage,
    _Peer,
    coordinator_run,
    decode_payload,
    encode_frame,
    load_transcript,
    node_serve,
    read_frame,
    schedule_from_wire,
    schedule_to_wire,
    verify_transcript,
)
from test_dist import REJECTED_RATIONALS


def start_nodes(count=3):
    """Spin up node servers on ephemeral ports; returns (endpoints, threads)."""
    endpoints = []
    threads = []
    for node in range(1, count + 1):
        ready = threading.Event()
        slot = {}

        def announce(addr, slot=slot, ready=ready):
            slot["addr"] = addr
            ready.set()

        thread = threading.Thread(
            target=node_serve,
            args=(node, default_assignment(), ("127.0.0.1", 0)),
            kwargs={"announce": announce},
            daemon=True,
        )
        thread.start()
        assert ready.wait(5)
        endpoints.append(slot["addr"])
        threads.append(thread)
    return endpoints, threads


class TestWireFormat:
    def test_frame_round_trip(self):
        message = WireMessage("MEASURE", ("7", "yyx", "5/4"))
        frame = encode_frame(message)
        assert frame == b"17 MEASURE 7 yyx 5/4\n"
        assert read_frame(io.BytesIO(frame)) == message

    def test_read_frame_eof_and_truncation(self):
        assert read_frame(io.BytesIO(b"")) is None
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"5 DON"))
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"x DONE\n"))
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"99999999999999999999 x"))

    def test_frames_are_bounded(self):
        with pytest.raises(ProtocolError):
            encode_frame(WireMessage("SCHEDULE", ("x" * MAX_FRAME,)))
        # A frame claiming 10^8 bytes must not make the reader allocate them.
        left, right = socket.socketpair()
        with left, right, right.makefile("rb") as reader:
            left.sendall(b"100000000 MEASURE 0 yyx 3/2\n")
            left.shutdown(socket.SHUT_WR)
            tracemalloc.start()
            try:
                with pytest.raises(ProtocolError):
                    read_frame(reader)
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2**20

    def test_message_validation(self):
        with pytest.raises(ProtocolError):
            WireMessage("PING")
        with pytest.raises(ProtocolError):
            WireMessage("HELLO", ("has space",))
        with pytest.raises(ProtocolError, match="needs 3 fields"):
            decode_payload("RESULT")
        with pytest.raises(ProtocolError, match="needs 0 fields"):
            decode_payload("DONE now")

    def test_fraction_codec(self):
        for value in (Fraction(5, 4), Fraction(-3, 7), Fraction(2)):
            assert parse_rational(rational_text(value)) == value
        for bad in REJECTED_RATIONALS + ["x", "1/y"]:
            with pytest.raises(ProtocolError):
                schedule_from_wire(f"yyx:{bad}:2")

    def test_schedule_codec(self):
        schedule = default_schedule()
        assert schedule_from_wire(schedule_to_wire(schedule)) == schedule
        for bad in ("garbage", "yyx:1/0:2", "zzz:1:2", "yyx:2:1", "yyx:1:2;yyx:3:4"):
            with pytest.raises(ProtocolError):
                schedule_from_wire(bad)

    def test_payload_round_trip(self):
        message = WireMessage("RESULT", ("3", "2", "-1"))
        assert decode_payload(message.payload()) == message


def raw_frame(payload: str) -> bytes:
    data = payload.encode("utf-8")
    return b"%d %s\n" % (len(data), data)


@pytest.mark.parametrize(
    "payload",
    ["RESULT", "MEASURE 0 yyx", "SCHEDULE"]
    + [f"MEASURE 0 yyx {bad}" for bad in REJECTED_RATIONALS],
)
def test_malformed_frame_ends_node_with_exit_4(tmp_path, payload):
    config = tmp_path / "node.cfg"
    config.write_text("mode = ghz-net-node\nrole = node1\nlisten = 127.0.0.1:0\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "corrlab", "--config", str(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        host, port = re.match(r"listening (\S+):(\d+)", proc.stdout.readline()).groups()
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            schedule = "SCHEDULE " + schedule_to_wire(default_schedule())
            conn.sendall(raw_frame("HELLO 1") + raw_frame(schedule) + raw_frame(payload))
            _out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 4
    assert "network error:" in err and "Traceback" not in err


class TestSession:
    def test_networked_matches_in_process(self):
        endpoints, threads = start_nodes()
        transcript = coordinator_run(default_schedule(), 40, seed=42, endpoints=endpoints)
        for thread in threads:
            thread.join(5)
        assert transcript.aborted_reason is None
        assert transcript.void_trials == []
        expected = [
            trial
            for regime in REGIME_ORDER
            for trial in run_all_regimes(default_schedule(), 40, seed=42)[regime]
        ]
        assert transcript.trials == expected

    def test_transcript_save_load_verify(self, tmp_path):
        endpoints, threads = start_nodes()
        transcript = coordinator_run(default_schedule(), 10, seed=7, endpoints=endpoints)
        for thread in threads:
            thread.join(5)
        path = tmp_path / "session.log"
        transcript.save(path)
        report = verify_transcript(load_transcript(path))
        assert report.ok
        assert report.trials_checked == 3 * 4 * 10
        for regime in REGIME_ORDER:
            assert report.product_counts[regime.value] == {
                EXPECTED_PRODUCT[regime]: 10
            }

    def test_verifier_catches_flipped_outcome(self, tmp_path):
        endpoints, threads = start_nodes()
        transcript = coordinator_run(default_schedule(), 5, seed=3, endpoints=endpoints)
        for thread in threads:
            thread.join(5)
        path = tmp_path / "session.log"
        transcript.save(path)
        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            if "\tnode2>coord\tRESULT 0 2 " in line:
                flipped = "-1" if line.endswith("+1") else "+1"
                lines[index] = line.rsplit(" ", 1)[0] + " " + flipped
                break
        else:
            pytest.fail("no RESULT line found to tamper with")
        path.write_text("\n".join(lines) + "\n")
        report = verify_transcript(load_transcript(path))
        assert not report.ok
        assert len(report.mismatches) == 1
        assert "trial 0 node 2" in report.mismatches[0]

    def test_verifier_flags_forwarded_results(self):
        transcript = SessionTranscript()
        transcript.log("coord>node1", WireMessage("RESULT", ("0", "2", "+1")))
        report = verify_transcript(transcript)
        assert not report.ok
        assert report.forwarding_violations

    def test_honest_session_never_forwards_results(self):
        endpoints, threads = start_nodes()
        transcript = coordinator_run(default_schedule(), 3, seed=1, endpoints=endpoints)
        for thread in threads:
            thread.join(5)
        for entry in transcript.entries:
            if entry.direction.startswith("coord>"):
                assert entry.message.kind != "RESULT"

    def test_unreachable_node_aborts_cleanly(self):
        endpoints = [("127.0.0.1", 1), ("127.0.0.1", 1), ("127.0.0.1", 1)]
        transcript = coordinator_run(default_schedule(), 5, seed=1, endpoints=endpoints)
        assert transcript.aborted_reason is not None
        assert "unreachable" in transcript.aborted_reason
        assert transcript.trials == []

    def test_node_killed_mid_session_reports_abort(self):
        # Node 3 accepts the handshake, then drops the connection.
        import socket as socketlib

        def half_node(announce):
            server = socketlib.socket()
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            announce(server.getsockname())
            conn, _ = server.accept()
            server.close()
            reader = conn.makefile("rb")
            hello = read_frame(reader)
            conn.sendall(encode_frame(WireMessage("HELLO", (hello.fields[0],))))
            read_frame(reader)  # SCHEDULE
            conn.close()

        endpoints, threads = start_nodes(2)
        ready = threading.Event()
        slot = {}
        thread = threading.Thread(
            target=half_node,
            args=(lambda addr: (slot.__setitem__("addr", addr), ready.set()),),
            daemon=True,
        )
        thread.start()
        assert ready.wait(5)
        endpoints.append(slot["addr"])
        transcript = coordinator_run(
            default_schedule(), 5, seed=1, endpoints=endpoints, timeout=5.0
        )
        assert transcript.aborted_reason is not None
        assert transcript.void_trials == [0]


def test_peers_disable_nagle():
    with socket.create_server(("127.0.0.1", 0)) as server:
        client = _Peer(socket.create_connection(server.getsockname()))
        node = _Peer(server.accept()[0])
    try:
        for peer in (client, node):
            assert peer.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
    finally:
        client.close()
        node.close()


def test_node_answers_bad_measures_with_error():
    (endpoint,), (thread,) = start_nodes(1)
    with socket.create_connection(endpoint, timeout=10) as conn, conn.makefile("rb") as reader:
        for payload, reply in [
            ("MEASURE 0 yyx 3/2", "ERROR 0 1 no-schedule"),
            ("SCHEDULE " + schedule_to_wire(default_schedule()), None),
            ("MEASURE 1 zzz 3/2", "ERROR 1 1 out-of-window"),
            ("MEASURE 2 yyx 9/2", "ERROR 2 1 out-of-window"),
            ("MEASURE 3 yyx 3/2", "RESULT 3 1 -1"),
        ]:
            conn.sendall(encode_frame(decode_payload(payload)))
            if reply is not None:
                assert read_frame(reader) == decode_payload(reply)
        conn.sendall(encode_frame(WireMessage("DONE")))
    thread.join(5)
    assert not thread.is_alive()


#: Hostile transcript lines after a default SCHEDULE, as "direction<TAB>payload".
HOSTILE_TRANSCRIPTS = {
    "outcome-not-a-sign": ["coord>node1\tMEASURE 0 yyx 3/2", "node1>coord\tRESULT 0 1 x"],
    "direction-not-a-node": ["coord>nodeX\tMEASURE 0 yyx 3/2"],
    "unknown-regime": ["coord>node1\tMEASURE 0 zzz 3/2"],
    "time-outside-window": ["coord>node1\tMEASURE 0 yyx 9/2", "node1>coord\tRESULT 0 1 +1"],
    "unknown-node": ["coord>node7\tMEASURE 0 yyx 3/2", "node7>coord\tRESULT 0 7 +1"],
    "too-few-tabs": ["coord>node1 MEASURE 0 yyx 3/2"],
}


@pytest.mark.parametrize("case", HOSTILE_TRANSCRIPTS)
def test_hostile_transcript_is_reported(tmp_path, case):
    schedule = "coord>node1\tSCHEDULE " + schedule_to_wire(default_schedule())
    lines = [schedule] + HOSTILE_TRANSCRIPTS[case]
    path = tmp_path / "session.log"
    stamp = "2026-01-01T00:00:00"
    path.write_text("".join(f"{seq}\t{stamp}\t{line}\n" for seq, line in enumerate(lines)))
    if case == "too-few-tabs":
        with pytest.raises(ProtocolError):
            load_transcript(path)
        return
    report = verify_transcript(load_transcript(path))
    assert not report.ok
    assert len(report.mismatches) == 1
