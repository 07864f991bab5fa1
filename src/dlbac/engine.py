"""Access control decision engine: metadata lookup, decide, and a line server.

The wire protocol is newline-delimited ASCII over TCP: `DECIDE <uid> <rid>
<op>` (each field ASCII `-?[0-9]+`) answers `GRANT <prob>` or `DENY <prob>`
(six decimals), `PING` answers `PONG`, anything else answers `ERR <reason>`.
Only ASCII whitespace separates fields or pads a line.  Every input line
yields exactly one reply line and request errors never terminate the
server.  A line longer than `MAX_LINE` bytes before its newline answers
`ERR line too long`, and the server then closes that connection.  At EOF a
last line without a newline is still answered.

Each connection is one loop over `recv`: it answers every complete line it
has received, in order, and sends those replies with one `sendall`, on a
socket with `TCP_NODELAY` set.  A connection whose `recv` or `sendall`
waits `IDLE_SECONDS` is closed without a reply, so a client that stops
sending or reading gives its slot back.  At most `MAX_CONNECTIONS`
connections are served at once; one more is answered `ERR server busy` and
closed.

A decision is two steps: resolve the request and score the resolved rows.
Resolving checks, in order, the op range, the encoder's layout against the
store, the user, the resource and the encoder's width against the network.
All the `DECIDE` lines of one `recv` are scored in one `forward_active`,
which cuts and pads them into the tiles every `forward` uses, and whose
layer 0 gives every row the bits of a dense `forward`.  So a reply depends
on its batch only through the BLAS.  Where the BLAS gives a row of a
padded tile the same bits in every tile, as OpenBLAS 0.3.31 does for the
default hidden widths, a reply does not depend on the lines that shared
its batch and equals its pair's row of a dense `forward` of any batch.

A pair's metadata is one row of positions, user positions first.  A store
lists each user's active input columns (from position 0) and each
resource's (from position num_user_meta) once per encoder, on the first
decision or explanation that encoder asks of it; a pair's columns are its
user's, then its resource's.
"""

from __future__ import annotations

import re
import socket
import socketserver
import string
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Dataset
from .encoding import Encoder, active_columns
from .errors import ConfigError, ConflictError, NotFoundError
from .neuralnet import Network, forward_active

MAX_LINE = 1024  # bytes in one request line, not counting its newline
MAX_CONNECTIONS = 64  # connections served at once; one more is told `ERR server busy`
RECV_BYTES = 65536  # bytes asked of one `recv`
IDLE_SECONDS = 30  # a connection whose recv or sendall waits this long is closed


@dataclass(frozen=True)
class Decision:
    op_index: int
    probability: float
    granted: bool
    threshold: float


def _find(table: dict, key: int, kind: str):
    try:
        return table[key]
    except KeyError:
        raise NotFoundError(f"unknown {kind} {key}") from None


class MetadataStore:
    """Each side's ids, in order of first appearance, and their metadata rows.

    `uids[k]` owns row k of `U` and `rids[k]` row k of `R`; the store holds
    all four as read-only int64 arrays.
    """

    def __init__(self, uids, U, rids, R):
        self.uids, self.U, self.rids, self.R = (
            np.ascontiguousarray(a, dtype=np.int64) for a in (uids, U, rids, R)
        )
        for a in (self.uids, self.U, self.rids, self.R):
            a.flags.writeable = False
        self.num_user_meta, self.num_res_meta = self.U.shape[1], self.R.shape[1]
        # (encoder, user columns, resource columns), replaced whole
        self._columns = None

    def columns(self, encoder: Encoder) -> tuple[np.ndarray, np.ndarray]:
        """Each side's `active_columns`: row k of a side is its k-th id's.

        Built on the first call with an encoder and kept until a call with a
        different encoder object; users from position 0, resources from
        position num_user_meta.
        """
        columns = self._columns
        if columns is None or columns[0] is not encoder:
            nu = self.num_user_meta
            encoder.check_layout(nu, self.num_res_meta)
            users = active_columns(encoder, self.U, 0)
            resources = active_columns(encoder, self.R, nu)
            users.flags.writeable = resources.flags.writeable = False
            columns = (encoder, users, resources)
            self._columns = columns
        return columns[1], columns[2]

    @cached_property
    def _row_of(self) -> tuple[dict[int, int], dict[int, int]]:
        """uid -> row of U and rid -> row of R, built on first use."""
        return (
            {u: k for k, u in enumerate(self.uids.tolist())},
            {r: k for k, r in enumerate(self.rids.tolist())},
        )

    def locate(self, uid: int, rid: int) -> tuple[int, int]:
        """The rows of the pair's user and resource; an unknown user is named first."""
        users, resources = self._row_of
        return _find(users, uid, "user"), _find(resources, rid, "resource")

    def features(self, encoder: Encoder, uid: int, rid: int) -> np.ndarray:
        """The pair's feature row: its user's encoded row, then its resource's."""
        users, resources = self.columns(encoder)
        i, j = self.locate(uid, rid)
        active = np.concatenate((users[i], resources[j]))
        x = np.zeros(encoder.width)
        x[active[active >= 0]] = 1.0
        return x

    @property
    def user_ids(self) -> list[int]:
        return sorted(self.uids.tolist())

    @property
    def resource_ids(self) -> list[int]:
        return sorted(self.rids.tolist())


def build_store(dataset: Dataset) -> MetadataStore:
    """Collect per-id metadata from a dataset; conflicting vectors are fatal."""
    nu, sides, conflicts = dataset.num_user_meta, [], []
    for kind, ids, meta in (
        ("user", dataset.ids[:, 0], dataset.M[:, :nu]),
        ("resource", dataset.ids[:, 1], dataset.M[:, nu:]),
    ):
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        owner = first[inverse]  # the first tuple with each tuple's id
        for i in np.flatnonzero((meta != meta[owner]).any(axis=1))[:1]:  # the earliest, if any
            prev, now = tuple(meta[owner[i]].tolist()), tuple(meta[i].tolist())
            conflicts.append((i, f"conflicting metadata for {kind} {ids[i]}: {prev} vs {now}"))
        first.sort()  # ids in order of first appearance
        sides += [ids[first], meta[first]]
    if conflicts:
        raise ConflictError(min(conflicts, key=lambda c: c[0])[1])  # a tie names the user
    return MetadataStore(*sides)


def _resolve(net: Network, encoder: Encoder, store: MetadataStore, uid: int, rid: int, op: int):
    """(user row, resource row, op) of a request.

    Checked in this order: the op range, the encoder's layout against the
    store, the user, the resource, and the encoder's width against the network.
    """
    net.config.check_op(op)
    store.columns(encoder)
    rows = store.locate(uid, rid)
    if encoder.width != net.config.input_width:
        raise ConfigError("input width does not match the network")
    return (*rows, op)


def _score(net: Network, encoder: Encoder, store: MetadataStore, requests) -> list[float]:
    """The probability of each resolved request, from one `forward_active`."""
    users, resources = store.columns(encoder)
    user_rows, res_rows, ops = zip(*requests)
    C = np.concatenate((users.take(user_rows, axis=0), resources.take(res_rows, axis=0)), axis=1)
    P = forward_active(net, C)
    return [p[op] for p, op in zip(P.tolist(), ops)]


def decide(
    net: Network,
    encoder: Encoder,
    store: MetadataStore,
    uid: int,
    rid: int,
    op: int,
    threshold: float = 0.5,
) -> Decision:
    """Grant iff the network's probability for op strictly exceeds the threshold."""
    prob = _score(net, encoder, store, [_resolve(net, encoder, store, uid, rid, op)])[0]
    return Decision(op, prob, prob > threshold, threshold)


def format_decision(d: Decision) -> str:
    verdict = "GRANT" if d.granted else "DENY"
    return f"{verdict} {d.probability:.6f}"


_DECIDE = re.compile(r"DECIDE\s+(-?[0-9]+)\s+(-?[0-9]+)\s+(-?[0-9]+)", re.ASCII)


def _request(line: str):
    """(uid, rid, op) of a `DECIDE` line, or the reply to any other line."""
    line = line.strip(string.whitespace)
    if line == "PING":
        return "PONG"
    m = _DECIDE.fullmatch(line)
    if m is None:
        return "ERR malformed request"
    try:
        return int(m[1]), int(m[2]), int(m[3])
    except ValueError:  # more digits than int() converts
        return "ERR malformed request"


def handle_lines(
    lines: list[str], net: Network, encoder: Encoder, store: MetadataStore, threshold: float
) -> list[str]:
    """One reply per input line, in order; every resolved `DECIDE` is scored in one batch."""
    replies, pending, slots = [], [], []  # slots[k]: the reply to pending[k]
    for line in lines:
        reply = _request(line)
        if isinstance(reply, tuple):
            try:
                pending.append(_resolve(net, encoder, store, *reply))
                slots.append(len(replies))
                reply = None
            except (NotFoundError, ConfigError) as exc:
                reply = f"ERR {exc}"
        replies.append(reply)
    if pending:
        probs = _score(net, encoder, store, pending)
        for k, (_, _, op), p in zip(slots, pending, probs):
            replies[k] = format_decision(Decision(op, p, p > threshold, threshold))
    return replies


def handle_line(
    line: str, net: Network, encoder: Encoder, store: MetadataStore, threshold: float
) -> str:
    """The reply to one line: `handle_lines` of a batch of one."""
    return handle_lines([line], net, encoder, store, threshold)[0]


class _Handler(socketserver.BaseRequestHandler):
    """Answers every complete line that one `recv` brings, in order, with one `sendall`."""

    def handle(self):
        srv, sock = self.server, self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(IDLE_SECONDS)  # bounds each recv and each whole sendall
        tail = b""
        try:
            while True:
                data = sock.recv(RECV_BYTES)
                *lines, tail = (tail + data).split(b"\n")
                if not data and tail:  # EOF: the last line needs no newline
                    lines.append(tail)
                    tail = b""
                n = next((k for k, raw in enumerate(lines) if len(raw) > MAX_LINE), len(lines))
                replies = handle_lines(
                    [raw.decode("utf-8", errors="replace") for raw in lines[:n]],
                    srv.net,
                    srv.encoder,
                    srv.store,
                    srv.threshold,
                )
                too_long = n < len(lines) or len(tail) > MAX_LINE
                if too_long:
                    replies.append("ERR line too long")
                if replies:
                    sock.sendall("".join(r + "\n" for r in replies).encode("utf-8"))
                if too_long or not data:
                    return
        except TimeoutError:  # idle, or not reading its replies: close without one
            return


class DecisionServer(socketserver.ThreadingTCPServer):
    """One thread per connection, at most `MAX_CONNECTIONS` at a time."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, net, encoder, store, threshold):
        super().__init__(address, _Handler)
        self.net = net
        self.encoder = encoder
        self.store = store
        self.threshold = threshold
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            try:
                request.sendall(b"ERR server busy\n")
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread started, so none will release the slot
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def serve(
    net: Network,
    encoder: Encoder,
    store: MetadataStore,
    host: str = "127.0.0.1",
    port: int = 4712,
    threshold: float = 0.5,
) -> DecisionServer:
    """Start the line-protocol server on a daemon thread and return it.

    Callers (tests, embedders) stop it with `shutdown()` and `server_close()`;
    `server_address` holds the bound port when `port` is 0.
    """
    server = DecisionServer((host, port), net, encoder, store, threshold)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server
