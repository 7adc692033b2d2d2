"""Four-process version of the three-station experiment.

One coordinator drives three node processes over local TCP.  Nodes receive
only the schedule and per-trial measurement times; outcomes travel node to
coordinator and are never forwarded, so each station stays ignorant of the
others — the point being demonstrated.  The coordinator is the only source
of randomness and derives times exactly as the in-process simulator does,
which makes a networked session bit-identical to :func:`corrlab.ghz.run_window`
for the same seed and schedule.

Wire format: length-prefixed, line-delimited ASCII records of at most
:data:`MAX_FRAME` bytes.  A frame is the decimal byte length of the payload,
one space, the payload, one newline.  Payload fields are space-separated with
a fixed order per message kind; times are exact rationals ``n`` or ``n/d``.

    HELLO <node_id>
    SCHEDULE <regime>:<start>:<end>;...
    MEASURE <trial_id> <regime> <t>
    RESULT <trial_id> <node_id> <+1|-1>
    ERROR <trial_id> <node_id> <reason>
    DONE

Every session appends an ordered transcript, one message per line, that
:func:`verify_transcript` can replay offline.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Sequence

from .dist import parse_rational, rational_text
from .errors import DomainError, ProtocolError
from .ghz import (
    NODES,
    NodeAssignment,
    Regime,
    REGIME_ORDER,
    Schedule,
    TrialTriple,
    Window,
    default_assignment,
    node_output,
    window_times,
)

#: Every message kind with its number of payload fields.
KINDS = {"HELLO": 1, "SCHEDULE": 1, "MEASURE": 3, "RESULT": 3, "ERROR": 3, "DONE": 0}

#: Largest frame in bytes, newline included; the default SCHEDULE is ~80.
MAX_FRAME = 4096


@dataclass(frozen=True)
class WireMessage:
    kind: str
    fields: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProtocolError(f"unknown message kind {self.kind!r}")
        if len(self.fields) != KINDS[self.kind]:
            raise ProtocolError(f"{self.kind} needs {KINDS[self.kind]} fields, got {self.fields}")
        for part in self.fields:
            if any(c.isspace() for c in part):
                raise ProtocolError(f"field {part!r} contains whitespace")

    def payload(self) -> str:
        return " ".join((self.kind,) + self.fields)


def encode_frame(message: WireMessage) -> bytes:
    payload = message.payload().encode("ascii")
    frame = b"%d %s\n" % (len(payload), payload)
    if len(frame) > MAX_FRAME:
        raise ProtocolError(f"{message.kind} frame of {len(frame)} bytes exceeds {MAX_FRAME}")
    return frame


def decode_payload(payload: str) -> WireMessage:
    parts = payload.split(" ")
    return WireMessage(parts[0], tuple(parts[1:]))


def read_frame(reader) -> WireMessage | None:
    """Read one frame (one line: no field holds whitespace) from a binary file-like; None on EOF."""
    line = reader.readline(MAX_FRAME)
    if not line:
        return None
    prefix, _, payload = line.partition(b" ")
    if not (line.endswith(b"\n") and line.isascii() and prefix.isdigit()
            and int(prefix) == len(payload) - 1):
        raise ProtocolError(f"malformed, oversized or truncated frame {line[:40]!r}")
    return decode_payload(payload[:-1].decode("ascii"))


def schedule_to_wire(schedule: Schedule) -> str:
    return ";".join(
        f"{w.regime.value}:{rational_text(w.start)}:{rational_text(w.end)}"
        for w in schedule.windows
    )


def schedule_from_wire(text: str) -> Schedule:
    windows = []
    try:
        for chunk in text.split(";"):
            regime, start, end = chunk.split(":")
            windows.append(
                Window(Regime(regime), parse_rational(start), parse_rational(end))
            )
        return Schedule(tuple(windows))
    except ValueError as exc:  # a wrong field count, regime, number or window (DomainError)
        raise ProtocolError(f"bad schedule {text!r}: {exc}") from None


@dataclass(frozen=True)
class TranscriptEntry:
    seq: int
    timestamp: str
    direction: str  # e.g. "coord>node2" or "node2>coord"
    message: WireMessage

    def line(self) -> str:
        return f"{self.seq}\t{self.timestamp}\t{self.direction}\t{self.message.payload()}"


@dataclass
class SessionTranscript:
    entries: list[TranscriptEntry] = field(default_factory=list)
    trials: list[TrialTriple] = field(default_factory=list)
    void_trials: list[int] = field(default_factory=list)
    aborted_reason: str | None = None

    def log(self, direction: str, message: WireMessage) -> None:
        self.entries.append(
            TranscriptEntry(
                seq=len(self.entries),
                timestamp=datetime.now(timezone.utc).isoformat(),
                direction=direction,
                message=message,
            )
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for entry in self.entries:
                handle.write(entry.line() + "\n")


def load_transcript(path) -> SessionTranscript:
    transcript = SessionTranscript()
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 3)
            if len(parts) != 4 or not parts[0].isdigit():
                raise ProtocolError(f"transcript line {line[:40]!r} is not seq, time, direction, payload")
            seq, timestamp, direction, payload = parts
            transcript.entries.append(
                TranscriptEntry(int(seq), timestamp, direction, decode_payload(payload))
            )
    return transcript


class _Peer:
    """One framed TCP connection."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        # SCHEDULE gets no reply, so with Nagle the first MEASURE would wait for a delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = sock.makefile("rb")

    def send(self, message: WireMessage) -> None:
        self.sock.sendall(encode_frame(message))

    def recv(self) -> WireMessage | None:
        return read_frame(self.reader)

    def close(self) -> None:
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


def coordinator_run(
    schedule: Schedule,
    trials_per_regime: int,
    seed: int,
    endpoints: Sequence[tuple[str, int]],
    timeout: float = 10.0,
) -> SessionTranscript:
    """Drive a full session against three already-listening node processes.

    Returns the transcript; on node failure the session aborts with the
    partial transcript and ``aborted_reason`` set.  Trials whose three
    results never all arrive are recorded in ``void_trials``.
    """
    if len(endpoints) != 3:
        raise ProtocolError("exactly three node endpoints required")
    transcript = SessionTranscript()
    peers: dict[int, _Peer] = {}
    try:
        for node, (host, port) in zip(NODES, endpoints):
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
            except OSError as exc:
                transcript.aborted_reason = f"node{node} unreachable: {exc}"
                return transcript
            sock.settimeout(timeout)
            peer = _Peer(sock)
            peers[node] = peer
            hello = WireMessage("HELLO", (str(node),))
            peer.send(hello)
            transcript.log(f"coord>node{node}", hello)
            reply = peer.recv()
            if reply is None or reply.kind != "HELLO" or reply.fields != (str(node),):
                transcript.aborted_reason = f"node{node} failed HELLO handshake"
                return transcript
            transcript.log(f"node{node}>coord", reply)

        schedule_msg = WireMessage("SCHEDULE", (schedule_to_wire(schedule),))
        for node, peer in peers.items():
            peer.send(schedule_msg)
            transcript.log(f"coord>node{node}", schedule_msg)

        trial_id = 0
        for regime in REGIME_ORDER:
            for t in window_times(schedule, regime, seed, trials_per_regime):
                measure = WireMessage(
                    "MEASURE", (str(trial_id), regime.value, rational_text(t))
                )
                outputs: dict[int, int] = {}
                for node, peer in peers.items():
                    try:
                        peer.send(measure)
                    except OSError as exc:
                        transcript.aborted_reason = f"send to node{node} failed: {exc}"
                        return transcript
                    transcript.log(f"coord>node{node}", measure)
                void = False
                for node, peer in peers.items():
                    try:
                        reply = peer.recv()
                    except (OSError, ProtocolError) as exc:
                        transcript.aborted_reason = f"recv from node{node} failed: {exc}"
                        transcript.void_trials.append(trial_id)
                        return transcript
                    if reply is None:
                        transcript.aborted_reason = f"node{node} closed mid-session"
                        transcript.void_trials.append(trial_id)
                        return transcript
                    transcript.log(f"node{node}>coord", reply)
                    if (
                        reply.kind == "RESULT"
                        and reply.fields[:2] == (str(trial_id), str(node))
                        and reply.fields[2] in ("+1", "-1")
                    ):
                        outputs[node] = int(reply.fields[2])
                    else:
                        void = True
                if void or len(outputs) != 3:
                    transcript.void_trials.append(trial_id)
                else:
                    transcript.trials.append(
                        TrialTriple(regime, t, tuple(outputs[n] for n in NODES))
                    )
                trial_id += 1

        done = WireMessage("DONE")
        for node, peer in peers.items():
            peer.send(done)
            transcript.log(f"coord>node{node}", done)
    finally:
        for peer in peers.values():
            peer.close()
    return transcript


def node_serve(
    node_id: int,
    assignment: NodeAssignment,
    listen: tuple[str, int],
    announce=None,
) -> None:
    """Serve one session: answer MEASUREs from local state only, until DONE.

    ``announce`` (if given) is called with the bound (host, port) once the
    socket is listening, which lets callers use port 0.
    """
    if node_id not in NODES:
        raise ProtocolError(f"node id must be 1, 2 or 3, got {node_id}")
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(listen)
    server.listen(1)
    if announce is not None:
        announce(server.getsockname())
    conn, _addr = server.accept()
    server.close()
    peer = _Peer(conn)
    schedule: Schedule | None = None
    try:
        while True:
            message = peer.recv()
            if message is None or message.kind == "DONE":
                return
            if message.kind == "HELLO":
                peer.send(WireMessage("HELLO", (str(node_id),)))
            elif message.kind == "SCHEDULE":
                schedule = schedule_from_wire(message.fields[0])
            elif message.kind == "MEASURE":
                trial_id, regime_text, t_text = message.fields
                kind, reply = "ERROR", "no-schedule"
                if schedule is not None:
                    try:
                        t = parse_rational(t_text)
                    except DomainError as exc:
                        raise ProtocolError(f"bad MEASURE time: {exc}") from None
                    try:
                        outcome = node_output(assignment, schedule, node_id, Regime(regime_text), t)
                    except ValueError:  # an unknown regime, or t outside its window
                        reply = "out-of-window"
                    else:
                        kind, reply = "RESULT", f"{outcome:+d}"
                peer.send(WireMessage(kind, (trial_id, str(node_id), reply)))
            else:
                raise ProtocolError(f"unexpected {message.kind} at node")
    finally:
        peer.close()


@dataclass(frozen=True)
class VerificationReport:
    trials_checked: int
    mismatches: tuple[str, ...]
    forwarding_violations: tuple[str, ...]
    product_counts: dict

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.forwarding_violations


def verify_transcript(
    transcript: SessionTranscript, assignment: NodeAssignment | None = None
) -> VerificationReport:
    """Replay a transcript offline: re-derive every RESULT from (node, regime, t),
    check that RESULT payloads only ever travel node-to-coordinator, and count
    output products per regime."""
    if assignment is None:
        assignment = default_assignment()
    schedule: Schedule | None = None
    measures: dict[tuple[int, str], tuple[Regime, Fraction]] = {}
    mismatches: list[str] = []
    forwarding: list[str] = []
    products: dict[str, dict[int, int]] = {}
    results: dict[int, dict[int, int]] = {}
    trial_regime: dict[int, Regime] = {}
    checked = 0
    for entry in transcript.entries:
        message = entry.message
        to_node = entry.direction.startswith("coord>")
        if message.kind == "RESULT" and to_node:
            forwarding.append(f"entry {entry.seq}: RESULT sent toward a node")
        try:
            if message.kind == "SCHEDULE":
                schedule = schedule_from_wire(message.fields[0])
            elif message.kind == "MEASURE":
                trial_id = int(message.fields[0])
                node = int(entry.direction.removeprefix("coord>node"))
                measures[(trial_id, str(node))] = (
                    Regime(message.fields[1]),
                    parse_rational(message.fields[2]),
                )
            elif message.kind == "RESULT" and not to_node:
                trial_id, node_text, outcome_text = message.fields
                key = (int(trial_id), node_text)
                if key not in measures or schedule is None:
                    mismatches.append(f"entry {entry.seq}: RESULT without matching MEASURE")
                    continue
                regime, t = measures[key]
                expected = node_output(assignment, schedule, int(node_text), regime, t)
                outcome = int(outcome_text)
                checked += 1
                if expected != outcome:
                    mismatches.append(
                        f"trial {trial_id} node {node_text}: got {outcome_text}, expected {expected:+d}"
                    )
                results.setdefault(int(trial_id), {})[int(node_text)] = outcome
                trial_regime[int(trial_id)] = regime
        except (ValueError, ProtocolError) as exc:  # a hostile field; DomainError is a ValueError
            mismatches.append(f"entry {entry.seq}: {exc}")
    for trial_id, outputs in results.items():
        if len(outputs) == 3:
            product = outputs[1] * outputs[2] * outputs[3]
            regime = trial_regime[trial_id].value
            products.setdefault(regime, {}).setdefault(product, 0)
            products[regime][product] += 1
    return VerificationReport(
        trials_checked=checked,
        mismatches=tuple(mismatches),
        forwarding_violations=tuple(forwarding),
        product_counts=products,
    )
