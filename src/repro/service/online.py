"""The online matching daemon: streaming updates, incremental repair.

The batch service (:mod:`repro.service.executor`) runs offline job queues;
this module is the production story for streaming traffic — a resident
daemon that holds graphs in memory as :class:`~repro.service.sessions.
Session` objects, absorbs edge insert/delete batches over a line-delimited
JSON protocol (:mod:`repro.service.protocol`) on a local Unix socket, and
repairs optimality with :meth:`~repro.matching.incremental.
IncrementalMatcher.apply_batch` — one warm-started MS-BFS-Graft repair
per request instead of one search per edge.

The daemon degrades the same way the batch executor does:

* every ``update``/``match`` runs under a cooperative
  :class:`~repro.core.options.Deadline` (per-request override or server
  default), checked at every repair phase boundary; expiry maps to
  ``error.kind == "deadline"``;
* handler failures are classified through the retry taxonomy
  (:func:`~repro.service.retry.classify_failure`) and reported to the
  client, which retries ``transient`` errors under a
  :class:`~repro.service.retry.RetryPolicy`;
* SLO metrics flow through the shared telemetry layer
  (``repro_online_*`` counters, the repair-latency histogram whose
  p50/p99 the ``stats`` and ``metrics`` commands report, and the
  session-eviction counter).

Observability (``docs/observability.md``): every request gets a
monotonically increasing request id ``rid`` that is carried through the
``request`` span into the nested ``repair`` span, a ``metrics`` RPC
returns the Prometheus text exposition over the wire, and
``metrics_port`` additionally serves it over plain HTTP ``GET /metrics``
for scrapers that do not speak the line protocol. When ``flight_dir``
is set the daemon keeps a :class:`~repro.telemetry.flight.FlightRecorder`
ring of recent requests and dumps it as post-mortem JSONL whenever a
request fails — the failing request is the last line of the dump.

``repro-match serve`` is the CLI front end; ``repro-match client`` drives
a scripted session against it (the CI ``online-smoke`` job does exactly
that).
"""

from __future__ import annotations

import itertools
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.core.options import Deadline
from repro.errors import ServiceError, TransientEngineError
from repro.matching.verify import verify_maximum
from repro.service import protocol
from repro.service.retry import RetryPolicy
from repro.service.sessions import SessionManager
from repro.telemetry.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.telemetry.session import NULL_TELEMETRY
from repro.util.rng import as_rng


@dataclass
class OnlineConfig:
    """Daemon configuration (the ``repro-match serve`` flags)."""

    socket_path: Union[str, Path]
    max_sessions: int = 16
    default_deadline_seconds: Optional[float] = None
    cache_dir: Optional[Union[str, Path]] = None
    max_pairs: int = 1000
    """Cap on matched pairs returned by ``match`` with ``pairs: true``."""
    metrics_port: Optional[int] = None
    """TCP port for the HTTP ``GET /metrics`` endpoint (Prometheus text).

    ``None`` disables the endpoint; ``0`` binds an ephemeral port (tests) —
    the bound port is published as :attr:`MatchingDaemon.metrics_port`
    once the daemon is serving."""
    flight_dir: Optional[Union[str, Path]] = None
    """Directory for flight-recorder dumps on failed requests; ``None``
    disables the recorder entirely."""
    flight_capacity: int = DEFAULT_CAPACITY
    """Ring size of the request flight recorder."""


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via daemon tests
        self.server.daemon_ref.handle_stream(self.rfile, self.wfile)


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


class _MetricsHandler(BaseHTTPRequestHandler):
    """``GET /metrics`` → the daemon's Prometheus text exposition.

    Deliberately tiny: scrape-only, no other routes, loopback-bound. The
    line protocol's ``metrics`` command returns the same text for clients
    already on the socket; this endpoint exists for scrapers that only
    speak HTTP.
    """

    server_version = "repro-match"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404, "only /metrics is served")
            return
        body = self.server.daemon_ref.prometheus_exposition().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102
        return  # scrapes are high-frequency noise; the daemon stays quiet


class _MetricsServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class MatchingDaemon:
    """Long-lived online matching server over a local Unix stream socket."""

    def __init__(
        self,
        config: OnlineConfig,
        *,
        telemetry=None,
        clock=time.monotonic,
        wall=time.time,
    ) -> None:
        self.config = config
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._clock = clock
        self._wall = wall
        self._started = clock()
        cache = None
        if config.cache_dir is not None:
            from repro.cache import GraphCache

            cache = GraphCache(config.cache_dir, telemetry=telemetry)
        self.sessions = SessionManager(
            max_sessions=config.max_sessions,
            cache=cache,
            telemetry=self.telemetry,
        )
        self.requests_served = 0
        self._server: Optional[_Server] = None
        self._shutdown = threading.Event()
        self._rid = itertools.count(1)
        self.flight = (
            FlightRecorder(config.flight_capacity, wall=wall)
            if config.flight_dir is not None
            else None
        )
        self._metrics_server: Optional[_MetricsServer] = None
        self.metrics_port: Optional[int] = None
        """The bound metrics port once serving (resolves ``port=0``)."""

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        """Bind the socket and serve until a ``shutdown`` request arrives."""
        path = str(self.config.socket_path)
        parent = Path(path).parent
        parent.mkdir(parents=True, exist_ok=True)
        if Path(path).exists():
            Path(path).unlink()
        # The metrics endpoint binds before the Unix socket appears, so a
        # caller that has seen the socket can rely on ``metrics_port``.
        if self.config.metrics_port is not None:
            self._metrics_server = _MetricsServer(
                ("127.0.0.1", int(self.config.metrics_port)), _MetricsHandler
            )
            self._metrics_server.daemon_ref = self
            self.metrics_port = self._metrics_server.server_address[1]
            threading.Thread(
                target=self._metrics_server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            ).start()
        self._server = _Server(path, _Handler)
        self._server.daemon_ref = self
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._server.server_close()
            if self._metrics_server is not None:
                self._metrics_server.shutdown()
                self._metrics_server.server_close()
                self._metrics_server = None
                self.metrics_port = None
            try:
                os.unlink(path)
            except OSError:
                pass

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        deadline = self._clock() + 5.0
        path = str(self.config.socket_path)
        while self._clock() < deadline:
            if Path(path).exists():
                return thread
            time.sleep(0.005)
        raise ServiceError(f"daemon failed to bind {path} within 5s")

    def shutdown(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            # shutdown() must come from another thread than serve_forever's
            # handler threads are fine (ThreadingMixIn).
            threading.Thread(target=self._server.shutdown, daemon=True).start()

    # ------------------------------------------------------------------ #
    # request plumbing
    # ------------------------------------------------------------------ #

    def handle_stream(self, rfile, wfile) -> None:
        """Serve one client connection: a sequence of framed requests."""
        while not self._shutdown.is_set():
            try:
                line = protocol.read_line(rfile)
            except ServiceError as exc:
                wfile.write(protocol.encode(protocol.error_response(0, exc)))
                wfile.flush()
                return
            if line is None:
                return
            if not line.strip():
                continue
            response = self.handle_line(line)
            wfile.write(protocol.encode(response))
            wfile.flush()
            if response.get("result", {}).get("stopping"):
                # Stop the server only now that the reply is flushed: handler
                # threads are daemonic, so the process may exit as soon as
                # serve_forever returns.
                self.shutdown()
                return

    def handle_line(self, line: str) -> Dict[str, Any]:
        """Decode, dispatch, and classify one request (pure; testable).

        Every request is stamped with a server-side request id ``rid``
        that flows into the ``request``/``repair`` spans and the flight
        recorder, tying a trace lane, a metrics increment, and a flight
        event back to one wire request.
        """
        req_id = 0
        cmd = "?"
        rid = next(self._rid)
        try:
            request = protocol.Request.from_line(line)
            req_id, cmd = request.id, request.cmd
            with self.telemetry.request_span(cmd, rid, session=request.session):
                result = self._dispatch(request, rid)
            self.telemetry.count_request(cmd, "ok")
            self.requests_served += 1
            if self.flight is not None:
                self.flight.record(
                    "request", rid=rid, cmd=cmd, session=request.session,
                    status="ok",
                )
            return protocol.ok_response(req_id, result)
        except Exception as exc:  # noqa: BLE001 - mapped onto the taxonomy
            response = protocol.error_response(req_id, exc)
            self.telemetry.count_request(cmd, response["error"]["kind"])
            self.requests_served += 1
            if self.flight is not None:
                # The failing request is recorded last, then the whole ring
                # is dumped — so the dump's tail is the failure itself.
                self.flight.record(
                    "request_error", rid=rid, cmd=cmd,
                    error_kind=response["error"]["kind"],
                    error_type=response["error"]["type"],
                    error=response["error"]["message"],
                )
                self.flight.dump_to_dir(
                    self.config.flight_dir, f"online-req{rid}",
                    reason=response["error"]["type"],
                    context={"rid": rid, "cmd": cmd,
                             "kind": response["error"]["kind"]},
                )
            return response

    def _deadline(self, payload: Mapping[str, Any]) -> Optional[Deadline]:
        seconds = payload.get(
            "deadline_seconds", self.config.default_deadline_seconds
        )
        if seconds is None:
            return None
        return Deadline(float(seconds), clock=self._clock)

    # ------------------------------------------------------------------ #
    # command handlers
    # ------------------------------------------------------------------ #

    def _dispatch(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        handler = getattr(self, f"_cmd_{request.cmd}")
        return handler(request, rid)

    def _cmd_ping(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_seconds": round(self._clock() - self._started, 6),
        }

    def _cmd_create(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        payload = request.payload
        try:
            n_x = int(payload["n_x"])
            n_y = int(payload["n_y"])
        except (KeyError, TypeError, ValueError):
            raise ServiceError("create needs integer 'n_x' and 'n_y'") from None
        edges = protocol.parse_edge_pairs(payload, "edges")
        session = self.sessions.create(
            request.session, n_x, n_y, edges, wall=self._wall()
        )
        return session.describe()

    def _cmd_load(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        key = request.payload.get("key")
        if not isinstance(key, str) or not key:
            raise ServiceError("load needs a string 'key' (from snapshot)")
        session = self.sessions.load_snapshot(
            request.session, key, wall=self._wall()
        )
        return session.describe()

    def _cmd_update(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        session = self.sessions.get(request.session)
        payload = request.payload
        updates = [
            ("insert", x, y)
            for x, y in protocol.parse_edge_pairs(payload, "inserts")
        ] + [
            ("delete", x, y)
            for x, y in protocol.parse_edge_pairs(payload, "deletes")
        ]
        deadline = self._deadline(payload)
        started = self._clock()
        try:
            with self.telemetry.repair_span(session.name, rid):
                stats = session.matcher.apply_batch(updates, deadline=deadline)
        finally:
            elapsed = self._clock() - started
            self.telemetry.observe_repair(elapsed)
        self.telemetry.count_updates(stats.inserted + stats.deleted)
        self.telemetry.count_session_updates(
            session.name, stats.inserted + stats.deleted
        )
        self.telemetry.count_repair_sweeps(stats.bfs_rounds)
        session.record_batch(stats, elapsed)
        if self.flight is not None:
            self.flight.record(
                "repair", rid=rid, session=session.name,
                inserted=stats.inserted, deleted=stats.deleted,
                augmented=stats.augmented, bfs_rounds=stats.bfs_rounds,
                repair_seconds=round(elapsed, 6),
            )
        return {"repair_seconds": round(elapsed, 6), **stats.to_dict()}

    def _cmd_match(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        session = self.sessions.get(request.session)
        matcher = session.matcher
        result: Dict[str, Any] = {
            "session": session.name,
            "cardinality": matcher.cardinality,
        }
        if request.payload.get("verify", True):
            verify_maximum(matcher.graph(), matcher.matching())
            result["verified"] = True
        if request.payload.get("pairs"):
            pairs = matcher.matching().pairs()
            result["pairs"] = [
                [int(x), int(y)] for x, y in pairs[: self.config.max_pairs]
            ]
            result["pairs_truncated"] = len(pairs) > self.config.max_pairs
        return result

    def _cmd_stats(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        if request.session:
            return self.sessions.get(request.session).describe()
        uptime = self._clock() - self._started
        result: Dict[str, Any] = {
            "sessions": len(self.sessions),
            "session_names": self.sessions.names(),
            "max_sessions": self.sessions.max_sessions,
            "evictions": self.sessions.evictions,
            "requests_served": self.requests_served,
            "uptime_seconds": round(uptime, 6),
        }
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            try:
                hist = metrics.get("repro_online_repair_seconds")
            except Exception:  # noqa: BLE001 - no repairs observed yet
                hist = None
            if hist is not None and hist.count:
                # Guarded on count: an empty histogram's quantile is NaN,
                # which is not valid JSON on the wire.
                result["repair_p50_seconds"] = round(hist.quantile(0.50), 6)
                result["repair_p99_seconds"] = round(hist.quantile(0.99), 6)
                result["repairs_observed"] = hist.count
            try:
                updates = metrics.get("repro_online_updates_total").value
            except Exception:  # noqa: BLE001 - no updates counted yet
                updates = 0.0
            result["updates_total"] = int(updates)
            result["updates_per_second"] = round(
                updates / uptime if uptime > 0 else 0.0, 3
            )
        return result

    def prometheus_exposition(self) -> str:
        """The daemon's metrics as Prometheus text (RPC + HTTP endpoint).

        Refreshes the derived gauges (resident sessions, snapshot-store
        bytes) right before rendering, so a scrape never reports a stale
        resource footprint. Empty when telemetry is disabled.
        """
        if not self.telemetry.enabled:
            return ""
        from repro.telemetry.exporters import prometheus_text

        self.telemetry.set_sessions(len(self.sessions))
        if self.sessions.cache is not None:
            self.telemetry.set_snapshot_bytes(self.sessions.cache.total_bytes)
        return prometheus_text(self.telemetry.metrics)

    def _cmd_metrics(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        result: Dict[str, Any] = {
            "enabled": self.telemetry.enabled,
            "prometheus": self.prometheus_exposition(),
        }
        if self.telemetry.enabled:
            try:
                hist = self.telemetry.metrics.get("repro_online_repair_seconds")
            except Exception:  # noqa: BLE001 - no repairs observed yet
                hist = None
            if hist is not None and hist.count:
                result["repair_p50_seconds"] = round(hist.quantile(0.50), 6)
                result["repair_p99_seconds"] = round(hist.quantile(0.99), 6)
        return result

    def _cmd_snapshot(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        key = self.sessions.snapshot(request.session)
        if self.sessions.cache is not None:
            self.telemetry.set_snapshot_bytes(self.sessions.cache.total_bytes)
        return {"session": request.session, "key": key}

    def _cmd_close(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        return {
            "session": request.session,
            "closed": self.sessions.close(request.session),
        }

    def _cmd_shutdown(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        # Refuse further requests at once; handle_stream stops the server
        # after this reply has been written.
        self._shutdown.set()
        return {"stopping": True, "requests_served": self.requests_served + 1}


class OnlineClient:
    """Small blocking client for the daemon's protocol.

    Retries ``transient`` failures under the same
    :class:`~repro.service.retry.RetryPolicy` machinery the batch executor
    uses, so a daemon and a batch run degrade identically from the
    caller's point of view. ``deadline`` errors and ``permanent`` errors
    raise immediately.
    """

    def __init__(
        self,
        socket_path: Union[str, Path],
        *,
        retry: RetryPolicy = RetryPolicy(),
        jitter_seed: int = 0,
        timeout: float = 30.0,
        sleep=time.sleep,
    ) -> None:
        self.socket_path = str(socket_path)
        self.retry = retry
        self._rng = as_rng(jitter_seed)
        self._sleep = sleep
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(self.socket_path)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------ #

    def request(self, cmd: str, session: Optional[str] = None, **fields: Any) -> Dict[str, Any]:
        """Send one request; returns the ``result`` object on success.

        Raises :class:`~repro.errors.TransientEngineError`,
        :class:`~repro.errors.DeadlineExceeded`, or
        :class:`~repro.errors.ServiceError` according to the error kind the
        daemon reported, after exhausting transient retries.
        """
        attempt = 0
        while True:
            attempt += 1
            response = self._roundtrip(cmd, session, fields)
            if response.get("ok"):
                return response.get("result", {})
            error = response.get("error", {})
            kind = error.get("kind", "permanent")
            message = f"{error.get('type', 'Error')}: {error.get('message', '')}"
            if kind == "transient" and attempt < self.retry.max_attempts:
                self._sleep(self.retry.backoff_seconds(attempt, self._rng))
                continue
            if kind == "deadline":
                from repro.errors import DeadlineExceeded

                raise DeadlineExceeded(message)
            if kind == "transient":
                raise TransientEngineError(message)
            raise ServiceError(message)

    def _roundtrip(
        self, cmd: str, session: Optional[str], fields: Mapping[str, Any]
    ) -> Dict[str, Any]:
        self._next_id += 1
        payload: Dict[str, Any] = {"id": self._next_id, "cmd": cmd, **fields}
        if session is not None:
            payload["session"] = session
        self._sock.sendall(protocol.encode(payload))
        line = protocol.read_line(self._rfile)
        if line is None:
            raise ServiceError("daemon closed the connection mid-request")
        response = protocol.decode_response(line)
        if response.get("id") not in (0, self._next_id):
            raise ServiceError(
                f"response id {response.get('id')} does not match request "
                f"id {self._next_id}"
            )
        return response

    # convenience verbs ------------------------------------------------- #

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def create(self, session: str, n_x: int, n_y: int, edges=None) -> Dict[str, Any]:
        return self.request(
            "create", session, n_x=n_x, n_y=n_y,
            edges=[[int(x), int(y)] for x, y in (edges or [])],
        )

    def update(
        self,
        session: str,
        inserts: Iterable = (),
        deletes: Iterable = (),
        deadline_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "inserts": [[int(x), int(y)] for x, y in inserts],
            "deletes": [[int(x), int(y)] for x, y in deletes],
        }
        if deadline_seconds is not None:
            fields["deadline_seconds"] = deadline_seconds
        return self.request("update", session, **fields)

    def match(self, session: str, *, pairs: bool = False, verify: bool = True) -> Dict[str, Any]:
        return self.request("match", session, pairs=pairs, verify=verify)

    def stats(self, session: Optional[str] = None) -> Dict[str, Any]:
        return self.request("stats", session)

    def metrics(self) -> Dict[str, Any]:
        return self.request("metrics")

    def snapshot(self, session: str) -> Dict[str, Any]:
        return self.request("snapshot", session)

    def load(self, session: str, key: str) -> Dict[str, Any]:
        return self.request("load", session, key=key)

    def close_session(self, session: str) -> Dict[str, Any]:
        return self.request("close", session)

    def shutdown_server(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "OnlineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
