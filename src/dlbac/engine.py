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
socket with `TCP_NODELAY` set, so pipelined requests cost one send per
batch rather than one per line.  Each decision is one `forward` on one
row, so a reply never depends on the lines that shared its batch.  At
most `MAX_CONNECTIONS` connections are served at once; one more is answered
`ERR server busy` and closed.

A pair's metadata is one row of positions, user positions first.  A store
encodes each user's positions (from position 0) and each resource's (from
position num_user_meta) once per encoder, on the first decision or
explanation that encoder asks of it, so `MetadataStore.features` is two
row lookups and one concatenation, and a decision is that plus `forward`.
"""

from __future__ import annotations

import re
import socket
import socketserver
import string
import threading
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .encoding import Encoder, encode_positions
from .errors import ConfigError, ConflictError, NotFoundError
from .neuralnet import Network, forward

MAX_LINE = 1024  # bytes in one request line, not counting its newline
MAX_CONNECTIONS = 64  # connections served at once; one more is told `ERR server busy`
RECV_BYTES = 65536  # bytes asked of one `recv`


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
        # (encoder, uid -> user block, rid -> resource block), replaced whole
        self._rows = None

    def rows(self, encoder: Encoder) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        """uid -> encoded user block and rid -> encoded resource block.

        Built on the first call with an encoder and kept until a call with a
        different encoder object; each side is one `encode_positions` call,
        users from position 0 and resources from position num_user_meta.
        """
        rows = self._rows
        if rows is None or rows[0] is not encoder:
            nu = self.num_user_meta
            encoder.check_layout(nu, self.num_res_meta)
            rows = (
                encoder,
                dict(zip(self.uids.tolist(), encode_positions(encoder, self.U, 0))),
                dict(zip(self.rids.tolist(), encode_positions(encoder, self.R, nu))),
            )
            self._rows = rows
        return rows[1], rows[2]

    def features(self, encoder: Encoder, uid: int, rid: int) -> np.ndarray:
        """The pair's feature row: its user's encoded row, then its resource's."""
        users, resources = self.rows(encoder)
        user, resource = _find(users, uid, "user"), _find(resources, rid, "resource")
        return np.concatenate((user, resource))

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
    net.config.check_op(op)
    prob = float(forward(net, store.features(encoder, uid, rid))[op])
    return Decision(op, prob, prob > threshold, threshold)


def format_decision(d: Decision) -> str:
    verdict = "GRANT" if d.granted else "DENY"
    return f"{verdict} {d.probability:.6f}"


_DECIDE = re.compile(r"DECIDE\s+(-?[0-9]+)\s+(-?[0-9]+)\s+(-?[0-9]+)", re.ASCII)


def handle_line(
    line: str, net: Network, encoder: Encoder, store: MetadataStore, threshold: float
) -> str:
    """One reply line per input line; the protocol's whole request logic."""
    line = line.strip(string.whitespace)
    if line == "PING":
        return "PONG"
    m = _DECIDE.fullmatch(line)
    if m is None:
        return "ERR malformed request"
    try:
        uid, rid, op = int(m[1]), int(m[2]), int(m[3])
    except ValueError:  # more digits than int() converts
        return "ERR malformed request"
    try:
        return format_decision(decide(net, encoder, store, uid, rid, op, threshold))
    except (NotFoundError, ConfigError) as exc:
        return f"ERR {exc}"


class _Handler(socketserver.BaseRequestHandler):
    """Answers every complete line that one `recv` brings, in order, with one `sendall`."""

    def handle(self):
        srv, sock = self.server, self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        tail = b""
        while True:
            data = sock.recv(RECV_BYTES)
            *lines, tail = (tail + data).split(b"\n")
            if not data and tail:  # EOF: the last line needs no newline
                lines.append(tail)
                tail = b""
            replies = []
            for raw in lines:
                if len(raw) > MAX_LINE:
                    break
                replies.append(handle_line(
                    raw.decode("utf-8", errors="replace"),
                    srv.net,
                    srv.encoder,
                    srv.store,
                    srv.threshold,
                ))
            too_long = len(replies) < len(lines) or len(tail) > MAX_LINE
            if too_long:
                replies.append("ERR line too long")
            if replies:
                sock.sendall("".join(r + "\n" for r in replies).encode("utf-8"))
            if too_long or not data:
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
