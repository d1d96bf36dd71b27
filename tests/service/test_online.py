"""Online daemon: protocol validation, session LRU, end-to-end socket runs."""

import json
import threading

import numpy as np
import pytest

from repro.cache import GraphCache
from repro.errors import DeadlineExceeded, ServiceError, TransientEngineError
from repro.service import protocol
from repro.service.online import MatchingDaemon, OnlineClient, OnlineConfig
from repro.service.retry import RetryPolicy
from repro.service.sessions import SessionManager
from repro.telemetry.session import Telemetry


# --------------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------------- #


class TestProtocol:
    def test_request_roundtrip(self):
        line = json.dumps({"id": 3, "cmd": "update", "session": "g",
                           "inserts": [[0, 1]]})
        req = protocol.Request.from_line(line)
        assert req.id == 3 and req.cmd == "update" and req.session == "g"
        assert req.payload == {"inserts": [[0, 1]]}

    def test_invalid_json_rejected(self):
        with pytest.raises(ServiceError, match="not valid JSON"):
            protocol.Request.from_line("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            protocol.Request.from_line("[1, 2]")

    def test_unknown_command_rejected(self):
        with pytest.raises(ServiceError, match="unknown command"):
            protocol.Request.from_line('{"cmd": "frobnicate"}')

    def test_non_integer_id_rejected(self):
        with pytest.raises(ServiceError, match="id must be an integer"):
            protocol.Request.from_line('{"cmd": "ping", "id": "seven"}')

    @pytest.mark.parametrize("session", [None, "", "a/b", 7])
    def test_session_commands_need_a_session(self, session):
        data = {"cmd": "match", "id": 1}
        if session is not None:
            data["session"] = session
        with pytest.raises(ServiceError, match="session"):
            protocol.Request.from_line(json.dumps(data))

    def test_ping_needs_no_session(self):
        req = protocol.Request.from_line('{"cmd": "ping", "id": 1}')
        assert req.session is None

    def test_parse_edge_pairs(self):
        assert protocol.parse_edge_pairs({}, "edges") == []
        assert protocol.parse_edge_pairs(
            {"edges": [[0, 1], [2, 3]]}, "edges"
        ) == [(0, 1), (2, 3)]
        for bad in ({"edges": "x"}, {"edges": [[0]]}, {"edges": [[0, "y"]]}):
            with pytest.raises(ServiceError):
                protocol.parse_edge_pairs(bad, "edges")

    def test_error_response_carries_taxonomy(self):
        assert protocol.error_response(1, TransientEngineError("x"))["error"]["kind"] == "transient"
        assert protocol.error_response(1, DeadlineExceeded("x"))["error"]["kind"] == "deadline"
        assert protocol.error_response(1, ValueError("x"))["error"]["kind"] == "permanent"

    def test_encode_decode_roundtrip(self):
        payload = protocol.ok_response(4, {"cardinality": 9})
        line = protocol.encode(payload)
        assert line.endswith(b"\n")
        assert protocol.decode_response(line.decode()) == payload


# --------------------------------------------------------------------------- #
# session manager
# --------------------------------------------------------------------------- #


class TestSessionManager:
    def test_create_and_get(self):
        mgr = SessionManager(max_sessions=4)
        mgr.create("g", 3, 3, [(0, 0), (1, 1)])
        assert mgr.get("g").matcher.cardinality == 2
        assert mgr.names() == ["g"]

    def test_missing_session_error_names_residents(self):
        mgr = SessionManager()
        mgr.create("a", 1, 1)
        with pytest.raises(ServiceError, match="no such session 'b'.*'a'"):
            mgr.get("b")

    def test_lru_eviction_at_cap(self):
        tel = Telemetry()
        mgr = SessionManager(max_sessions=2, telemetry=tel)
        mgr.create("a", 1, 1)
        mgr.create("b", 1, 1)
        mgr.get("a")  # bump a: b becomes the LRU victim
        mgr.create("c", 1, 1)
        assert mgr.names() == ["a", "c"]
        assert mgr.evictions == 1
        counter = tel.metrics.get("repro_online_session_evictions_total")
        assert counter.value == 1
        assert tel.metrics.get("repro_online_sessions").value == 2

    def test_snapshot_requires_cache(self):
        mgr = SessionManager()
        mgr.create("g", 2, 2, [(0, 0)])
        with pytest.raises(ServiceError, match="cache"):
            mgr.snapshot("g")
        with pytest.raises(ServiceError, match="cache"):
            mgr.load_snapshot("g2", "0" * 64)

    def test_snapshot_load_roundtrip(self, tmp_path):
        cache = GraphCache(tmp_path / "cache")
        mgr = SessionManager(cache=cache)
        mgr.create("g", 4, 4, [(0, 0), (1, 1), (2, 3)])
        key = mgr.snapshot("g")
        restored = mgr.load_snapshot("copy", key)
        assert restored.matcher.edge_list() == mgr.get("g").matcher.edge_list()
        assert restored.matcher.cardinality == 3

    def test_snapshot_key_is_content_addressed(self, tmp_path):
        # Two sessions holding the same edge set — built through different
        # update histories — must snapshot to the SAME cache key (the
        # graph() determinism fix is what makes this hold).
        cache = GraphCache(tmp_path / "cache")
        mgr = SessionManager(cache=cache)
        mgr.create("a", 1, 16)
        for y in (8, 0, 9, 1):
            mgr.get("a").matcher.apply_batch([("insert", 0, y)])
        mgr.create("b", 1, 16)
        mgr.get("b").matcher.apply_batch(
            [("insert", 0, y) for y in (0, 1, 8, 9)]
            + [("delete", 0, 8), ("insert", 0, 8)]
        )
        assert mgr.snapshot("a") == mgr.snapshot("b")

    def test_snapshot_key_golden(self, tmp_path):
        # The snapshot key hashes the canonical edge list; a change in how a
        # session stores or orders its edges must not move existing keys.
        rng = np.random.default_rng(2024)
        edges = sorted({(int(rng.integers(0, 40)), int(rng.integers(0, 30)))
                        for _ in range(120)})
        mgr = SessionManager(cache=GraphCache(tmp_path / "cache"))
        mgr.create("golden", 40, 30, edges)
        mgr.get("golden").matcher.apply_batch(
            [("delete", x, y) for x, y in edges[::5]]
            + [("insert", 39, 29), ("insert", 0, 0)]
        )
        assert mgr.snapshot("golden") == (
            "ea910dc85463fbeeb25197a12be0e89d8f272899a29f0635ed61c6caf466aca8"
        )

    def test_load_unknown_key_errors(self, tmp_path):
        mgr = SessionManager(cache=GraphCache(tmp_path / "cache"))
        with pytest.raises(ServiceError, match="no cache entry"):
            mgr.load_snapshot("g", "ab" * 32)


# --------------------------------------------------------------------------- #
# daemon request handling (no socket: handle_line is pure)
# --------------------------------------------------------------------------- #


def make_daemon(tmp_path, **overrides):
    config = OnlineConfig(socket_path=tmp_path / "d.sock", **overrides)
    return MatchingDaemon(config, telemetry=Telemetry())


def send(daemon, **data):
    response = daemon.handle_line(json.dumps(data))
    return response


class TestHandleLine:
    def test_create_update_match(self, tmp_path):
        d = make_daemon(tmp_path)
        r = send(d, id=1, cmd="create", session="g", n_x=3, n_y=3,
                 edges=[[0, 0]])
        assert r["ok"] and r["result"]["cardinality"] == 1
        r = send(d, id=2, cmd="update", session="g",
                 inserts=[[1, 1], [2, 2]], deletes=[[0, 0]])
        assert r["ok"]
        assert r["result"]["inserted"] == 2 and r["result"]["deleted"] == 1
        assert r["result"]["cardinality"] == 2
        r = send(d, id=3, cmd="match", session="g", verify=True, pairs=True)
        assert r["result"]["verified"] is True
        assert sorted(map(tuple, r["result"]["pairs"])) == [(1, 1), (2, 2)]

    def test_match_certifies_by_default(self, tmp_path):
        d = make_daemon(tmp_path)
        send(d, id=1, cmd="create", session="g", n_x=2, n_y=2,
             edges=[[0, 0], [1, 1]])
        r = send(d, id=2, cmd="match", session="g")
        assert r["ok"] and r["result"]["verified"] is True
        # Break maximality behind the daemon's back: the default match
        # must now fail its certificate, while verify=false skips it.
        matcher = d.sessions.get("g").matcher
        matcher.mate_x[0] = matcher.mate_y[0] = -1
        r = send(d, id=3, cmd="match", session="g")
        assert not r["ok"] and r["error"]["type"] == "VerificationError"
        r = send(d, id=4, cmd="match", session="g", verify=False)
        assert r["ok"] and r["result"]["cardinality"] == 1
        assert "verified" not in r["result"]

    def test_unknown_session_is_permanent(self, tmp_path):
        d = make_daemon(tmp_path)
        r = send(d, id=1, cmd="match", session="ghost")
        assert not r["ok"] and r["error"]["kind"] == "permanent"
        assert r["error"]["type"] == "ServiceError"

    def test_bad_line_reports_id_zero(self, tmp_path):
        d = make_daemon(tmp_path)
        r = d.handle_line("{broken")
        assert not r["ok"] and r["id"] == 0

    def test_deadline_expiry_maps_to_deadline_kind(self, tmp_path):
        # Clock jumps 10s per reading: any positive deadline expires before
        # the first repair sweep runs.
        ticks = [0.0]

        def clock():
            ticks[0] += 10.0
            return ticks[0]

        config = OnlineConfig(socket_path=tmp_path / "d.sock",
                              default_deadline_seconds=1.0)
        d = MatchingDaemon(config, telemetry=Telemetry(), clock=clock)
        send(d, id=1, cmd="create", session="g", n_x=2, n_y=2)
        r = send(d, id=2, cmd="update", session="g", inserts=[[0, 0]])
        assert not r["ok"]
        assert r["error"]["kind"] == "deadline"
        assert r["error"]["type"] == "DeadlineExceeded"
        # The session survives: a repair without the deadline finishes.
        r = send(d, id=3, cmd="update", session="g", deadline_seconds=1e9)
        assert r["ok"] and r["result"]["cardinality"] == 1

    def test_request_metrics_counted(self, tmp_path):
        d = make_daemon(tmp_path)
        send(d, id=1, cmd="ping")
        send(d, id=2, cmd="match", session="ghost")
        ok = d.telemetry.metrics.get(
            "repro_online_requests_total", {"cmd": "ping", "status": "ok"}
        )
        bad = d.telemetry.metrics.get(
            "repro_online_requests_total",
            {"cmd": "match", "status": "permanent"},
        )
        assert ok.value == 1 and bad.value == 1

    def test_stats_reports_slo_metrics(self, tmp_path):
        d = make_daemon(tmp_path)
        send(d, id=1, cmd="create", session="g", n_x=4, n_y=4)
        send(d, id=2, cmd="update", session="g",
             inserts=[[0, 0], [1, 1], [2, 2]])
        r = send(d, id=3, cmd="stats")
        result = r["result"]
        assert result["sessions"] == 1
        assert result["updates_total"] == 3
        assert result["repairs_observed"] == 1
        assert result["repair_p99_seconds"] >= 0.0
        assert "updates_per_second" in result
        r = send(d, id=4, cmd="stats", session="g")
        assert r["result"]["batches_applied"] == 1
        assert r["result"]["updates_applied"] == 3


# --------------------------------------------------------------------------- #
# end-to-end over the socket
# --------------------------------------------------------------------------- #


@pytest.fixture()
def daemon(tmp_path):
    d = MatchingDaemon(
        OnlineConfig(socket_path=tmp_path / "d.sock", max_sessions=4,
                     cache_dir=tmp_path / "cache"),
        telemetry=Telemetry(),
    )
    thread = d.start_background()
    yield d
    d.shutdown()
    thread.join(timeout=5)


class TestEndToEnd:
    def test_full_session_lifecycle(self, daemon):
        with OnlineClient(daemon.config.socket_path) as client:
            assert client.ping()["pong"] is True
            client.create("g", 6, 6, edges=[(0, 0), (1, 1)])
            r = client.update("g", inserts=[(2, 2), (3, 3)], deletes=[(0, 0)])
            assert r["cardinality"] == 3
            assert client.match("g", verify=True)["verified"] is True
            assert client.match("g")["verified"] is True
            assert "verified" not in client.match("g", verify=False)
            key = client.snapshot("g")["key"]
            restored = client.load("g2", key)
            assert restored["cardinality"] == 3
            stats = client.stats()
            assert stats["sessions"] == 2
            assert client.close_session("g2")["closed"] is True
            assert client.stats()["sessions"] == 1

    def test_errors_propagate_with_kind(self, daemon):
        with OnlineClient(daemon.config.socket_path) as client:
            with pytest.raises(ServiceError, match="no such session"):
                client.match("ghost")
            # The connection survives an error response.
            assert client.ping()["pong"] is True

    def test_concurrent_clients(self, daemon):
        errors = []

        def worker(i):
            try:
                with OnlineClient(daemon.config.socket_path) as client:
                    name = f"w{i}"
                    client.create(name, 10, 10)
                    for _ in range(5):
                        client.update(name, inserts=[(i % 10, i % 10)])
                    assert client.match(name)["cardinality"] == 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == []

    def test_client_retries_transient_errors(self, daemon):
        failures = {"left": 2}
        original = daemon._cmd_ping

        def flaky(request, rid):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise TransientEngineError("injected flake")
            return original(request, rid)

        daemon._cmd_ping = flaky
        sleeps = []
        client = OnlineClient(
            daemon.config.socket_path,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            sleep=sleeps.append,
        )
        try:
            assert client.ping()["pong"] is True
        finally:
            daemon._cmd_ping = original
            client.close()
        assert len(sleeps) == 2  # two transient failures, two backoffs

    def test_client_gives_up_after_max_attempts(self, daemon):
        original = daemon._cmd_ping

        def always_flaky(request, rid):
            raise TransientEngineError("injected flake")

        daemon._cmd_ping = always_flaky
        client = OnlineClient(
            daemon.config.socket_path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            sleep=lambda _s: None,
        )
        try:
            with pytest.raises(TransientEngineError):
                client.ping()
        finally:
            daemon._cmd_ping = original
            client.close()

    def test_shutdown_command_stops_server(self, tmp_path):
        d = MatchingDaemon(OnlineConfig(socket_path=tmp_path / "d.sock"))
        thread = d.start_background()
        with OnlineClient(d.config.socket_path) as client:
            assert client.shutdown_server()["stopping"] is True
        thread.join(timeout=5)
        assert not thread.is_alive()
