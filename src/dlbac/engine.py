"""Access control decision engine: metadata lookup, decide, and a line server.

The wire protocol is newline-delimited ASCII over TCP: `DECIDE <uid> <rid>
<op>` answers `GRANT <prob>` or `DENY <prob>` (six decimals), `PING` answers
`PONG`, anything else answers `ERR <reason>`.  Every input line yields
exactly one reply line and request errors never terminate the server.
"""

from __future__ import annotations

import socketserver
import threading
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .encoding import Encoder, encode_pair
from .errors import ConfigError, ConflictError, NotFoundError
from .neuralnet import Network, forward


@dataclass(frozen=True)
class Decision:
    op_index: int
    probability: float
    granted: bool
    threshold: float


class MetadataStore:
    """Immutable id -> metadata-vector maps for users and resources."""

    def __init__(
        self,
        num_user_meta: int,
        num_res_meta: int,
        users: dict[int, tuple[int, ...]],
        resources: dict[int, tuple[int, ...]],
    ):
        self.num_user_meta = num_user_meta
        self.num_res_meta = num_res_meta
        self._users = dict(users)
        self._resources = dict(resources)

    def lookup_user(self, uid: int) -> tuple[int, ...]:
        try:
            return self._users[uid]
        except KeyError:
            raise NotFoundError(f"unknown user {uid}") from None

    def lookup_resource(self, rid: int) -> tuple[int, ...]:
        try:
            return self._resources[rid]
        except KeyError:
            raise NotFoundError(f"unknown resource {rid}") from None

    @property
    def user_ids(self) -> list[int]:
        return sorted(self._users)

    @property
    def resource_ids(self) -> list[int]:
        return sorted(self._resources)


def build_store(dataset: Dataset) -> MetadataStore:
    """Collect per-id metadata from a dataset; conflicting vectors are fatal."""
    users: dict[int, tuple[int, ...]] = {}
    resources: dict[int, tuple[int, ...]] = {}
    for t in dataset.tuples:
        for table, key, meta, kind in (
            (users, t.uid, t.umeta, "user"),
            (resources, t.rid, t.rmeta, "resource"),
        ):
            prev = table.get(key)
            if prev is None:
                table[key] = meta
            elif prev != meta:
                raise ConflictError(
                    f"conflicting metadata for {kind} {key}: {prev} vs {meta}"
                )
    return MetadataStore(dataset.num_user_meta, dataset.num_res_meta, users, resources)


def _probabilities(
    net: Network, encoder: Encoder, store: MetadataStore, uid: int, rid: int
) -> np.ndarray:
    """The one decision path: lookup, encode, forward; one probability per op."""
    x = encode_pair(encoder, store.lookup_user(uid), store.lookup_resource(rid))
    return forward(net, x)


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
    if not 0 <= op < net.config.num_ops:
        raise ConfigError(f"operation index {op} out of range")
    prob = float(_probabilities(net, encoder, store, uid, rid)[op])
    return Decision(op, prob, prob > threshold, threshold)


def decide_all(
    net: Network,
    encoder: Encoder,
    store: MetadataStore,
    uid: int,
    rid: int,
    threshold: float = 0.5,
) -> list[Decision]:
    probs = _probabilities(net, encoder, store, uid, rid)
    return [
        Decision(op, float(p), float(p) > threshold, threshold)
        for op, p in enumerate(probs)
    ]


def format_decision(d: Decision) -> str:
    verdict = "GRANT" if d.granted else "DENY"
    return f"{verdict} {d.probability:.6f}"


def handle_line(
    line: str, net: Network, encoder: Encoder, store: MetadataStore, threshold: float
) -> str:
    """One reply line per input line; the protocol's whole request logic."""
    parts = line.strip().split()
    if parts == ["PING"]:
        return "PONG"
    if not parts or parts[0] != "DECIDE" or len(parts) != 4:
        return "ERR malformed request"
    try:
        uid, rid, op = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        return "ERR malformed request"
    try:
        return format_decision(decide(net, encoder, store, uid, rid, op, threshold))
    except (NotFoundError, ConfigError) as exc:
        return f"ERR {exc}"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        srv = self.server
        for raw in self.rfile:
            reply = handle_line(
                raw.decode("utf-8", errors="replace"),
                srv.net,
                srv.encoder,
                srv.store,
                srv.threshold,
            )
            self.wfile.write((reply + "\n").encode("utf-8"))
            self.wfile.flush()


class DecisionServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, net, encoder, store, threshold):
        super().__init__(address, _Handler)
        self.net = net
        self.encoder = encoder
        self.store = store
        self.threshold = threshold


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
