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

A request is checked, in order, for its op range, the encoder's layout
against the store, its user, its resource and the encoder's width against
the network.  Layout and width are the same for every request of a batch,
so they are checked once, at its first `DECIDE` whose op is in range: a
batch without one builds nothing in the store.  The pairs of the `DECIDE`
lines of one `recv` that pass are scored in one `forward_active`, each
distinct pair once, which cuts and pads them into the tiles every `forward`
uses and whose layer 0 gives every row the bits of a dense `forward`, and
each line reads its op from its pair's row.  So a reply depends on its batch
only through the BLAS.  Where the BLAS gives a row of a padded tile the same
bits in every tile, as OpenBLAS 0.3.31 does for the default hidden widths, a
reply does not depend on the lines that shared its batch and equals its
pair's row of a dense `forward` of any batch.

A server also caches, per pair, the whole probability row that scored it,
keyed by the pair's store rows `(i, j)`.  Every op of the pair and every
later request for it is then answered from that row and runs no numpy; a
`recv`'s misses are scored as above.  The cache (`RowCache`) holds at most
`CACHE_PAIRS` pairs: an insert into a full cache clears it first, and
inserts take the cache's lock, so threads cannot take it past the bound;
lookups take none.  The server scores with its own read-only copy of the
network, so a write to the caller's `net` cannot make an entry stale.  An
entry is the row its pair's batch gave, so a hit equals a miss bit for bit
wherever a reply does not depend on its batch.  `handle_line` and `decide`
keep no cache.

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
from .neuralnet import Network, _aligned_zeros, forward_active

MAX_LINE = 1024  # bytes in one request line, not counting its newline
MAX_CONNECTIONS = 64  # connections served at once; one more is told `ERR server busy`
RECV_BYTES = 65536  # bytes asked of one `recv`
IDLE_SECONDS = 30  # a connection whose recv or sendall waits this long is closed
CACHE_PAIRS = 1 << 14  # pairs whose probability rows one server keeps; a full cache is cleared


@dataclass(frozen=True)
class Decision:
    op_index: int
    probability: float
    granted: bool
    threshold: float


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
        i, j = users.get(uid), resources.get(rid)
        if i is None or j is None:
            raise NotFoundError(f"unknown user {uid}" if i is None else f"unknown resource {rid}")
        return i, j

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


class RowCache(dict):
    """A pair's store rows `(i, j)` -> its probability row, for at most `CACHE_PAIRS` pairs."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()

    def add(self, pairs, rows) -> None:
        """Insert each pair's row; an insert into a full cache clears it first."""
        with self._lock:  # a size check and its insert are one step for every thread
            for pair, row in zip(pairs, rows):
                if len(self) >= CACHE_PAIRS:
                    self.clear()
                self[pair] = row


def _batch_checks(net: Network, encoder: Encoder, store: MetadataStore):
    """(layout error or None, width error or None, uid -> row, rid -> row) of a batch."""
    try:
        store.columns(encoder)
        layout = None
    except ConfigError as exc:
        layout = str(exc)
    width = None if encoder.width == net.config.input_width else (
        "input width does not match the network")
    return layout, width, *store._row_of


def _refusal(layout, width, uid: int, rid: int, i, j):
    """(error class, text) of the first check past the op range that a request fails."""
    if layout or (i is not None and j is not None):
        return ConfigError, layout or width
    return NotFoundError, f"unknown user {uid}" if i is None else f"unknown resource {rid}"


def _score(net: Network, encoder: Encoder, store: MetadataStore, user_rows, res_rows):
    """The probability row of each pair (its user row and resource row), in one forward."""
    users, resources = store.columns(encoder)
    C = np.concatenate((users.take(user_rows, axis=0), resources.take(res_rows, axis=0)), axis=1)
    return forward_active(net, C)


def decide(
    net: Network, encoder: Encoder, store: MetadataStore, uid: int, rid: int, op: int,
    threshold: float = 0.5,
) -> Decision:
    """Grant iff the network's probability for op strictly exceeds the threshold."""
    net.config.check_op(op)
    layout, width, users, resources = _batch_checks(net, encoder, store)
    i, j = users.get(uid), resources.get(rid)
    if layout or width or i is None or j is None:
        error, text = _refusal(layout, width, uid, rid, i, j)
        raise error(text)
    prob = float(_score(net, encoder, store, [i], [j])[0, op])
    return Decision(op, prob, prob > threshold, threshold)


def _reply(granted: bool, probability: float) -> str:
    return ("GRANT %.6f" if granted else "DENY %.6f") % probability


def format_decision(d: Decision) -> str:
    return _reply(d.granted, d.probability)


_DECIDE = re.compile(r"DECIDE\s+(-?[0-9]+)\s+(-?[0-9]+)\s+(-?[0-9]+)", re.ASCII)


def handle_lines(
    lines: list[str], net: Network, encoder: Encoder, store: MetadataStore, threshold: float,
    cache: RowCache | None = None,
) -> list[str]:
    """One reply per input line, in order; the valid `DECIDE`s' pairs are scored in one batch.

    Each distinct pair is scored once.  A pair in `cache` is answered from
    its row instead, and the scored pairs are added to it.
    """
    replies, misses, num_ops, clean = [], {}, net.config.num_ops, None
    for line in lines:
        line = line.strip(string.whitespace)
        m = _DECIDE.fullmatch(line)
        if m is None:
            replies.append("PONG" if line == "PING" else "ERR malformed request")
            continue
        try:
            uid, rid, op = int(m[1]), int(m[2]), int(m[3])
        except ValueError:  # more digits than int() converts
            replies.append("ERR malformed request")
            continue
        if not 0 <= op < num_ops:
            replies.append(f"ERR operation index {op} out of range")
            continue
        if clean is None:  # the batch's first DECIDE whose op is in range
            layout, width, users, resources = _batch_checks(net, encoder, store)
            clean = not (layout or width)
        i, j = users.get(uid), resources.get(rid)
        if not clean or i is None or j is None:
            replies.append("ERR " + _refusal(layout, width, uid, rid, i, j)[1])
            continue
        row = None if cache is None else cache.get((i, j))
        if row is None:
            misses.setdefault((i, j), []).append((len(replies), op))
            replies.append(None)
        else:
            replies.append(_reply(row[op] > threshold, row[op]))
    if misses:
        rows = _score(net, encoder, store, *zip(*misses)).tolist()
        for row, waiting in zip(rows, misses.values()):
            for k, op in waiting:
                replies[k] = _reply(row[op] > threshold, row[op])
        if cache is not None:
            cache.add(misses, rows)
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
                # "\n" is no part of any UTF-8 sequence: the lines decode as one text
                text = b"\n".join(lines[:n]).decode("utf-8", errors="replace")
                replies = handle_lines(text.split("\n") if n else [], srv.net, srv.encoder,
                                       srv.store, srv.threshold, srv.cache)
                too_long = n < len(lines) or len(tail) > MAX_LINE
                if too_long:
                    replies.append("ERR line too long")
                if replies:
                    sock.sendall(("\n".join(replies) + "\n").encode())
                if too_long or not data:
                    return
        except TimeoutError:  # idle, or not reading its replies: close without one
            return


class DecisionServer(socketserver.ThreadingTCPServer):
    """One thread per connection, at most `MAX_CONNECTIONS` at a time.

    It scores with a read-only copy of `net`, and its connections share one
    `RowCache`, `cache`.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, net, encoder, store, threshold):
        super().__init__(address, _Handler)
        flat = _aligned_zeros(net.flat.size)
        np.copyto(flat, net.flat)
        flat.flags.writeable = False
        self.net = Network(net.config, flat)
        self.encoder, self.store, self.threshold = encoder, store, threshold
        self.cache = RowCache()
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
