"""HTTP layer: in-process round-trips plus the CI subprocess smoke path
(`repro serve` + `repro request` + `repro run` as real processes)."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.engine import AlgorithmCache
from repro.service import (
    PlanningHTTPServer,
    PlanRegistry,
    PlanRequest,
    PlanningService,
    ServerThread,
    ServiceError,
    check_health,
    fetch_stats,
    make_server,
    request_plan,
)
from repro.service import server as server_module

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")


@pytest.fixture
def service(tmp_path):
    registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "algorithms"))
    with PlanningService(registry, num_workers=2) as svc:
        yield svc


@pytest.fixture
def server_url(service):
    with ServerThread(make_server(service, port=0)) as thread:
        yield thread.url


class TestHTTP:
    def test_health_and_stats(self, server_url):
        assert check_health(server_url)
        with urllib.request.urlopen(server_url + "/v1/stats", timeout=5) as reply:
            stats = json.loads(reply.read())
        assert "broker" in stats and "registry" in stats

    def test_plan_round_trip(self, server_url):
        request = PlanRequest(
            "Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=60
        )
        response = request_plan(server_url, request)
        assert response.ok and response.source == "synthesized"
        plan = response.plan_object()  # re-verifies against the spec
        assert plan.algorithm.signature() == (1, 2, 3)
        warm = request_plan(server_url, request)
        assert warm.ok and warm.source == "cache"

    def test_unsat_surfaces_as_http_422_with_payload(self, server_url):
        response = request_plan(
            server_url,
            PlanRequest("Allgather", "ring:4", chunks=1, steps=1, rounds=1, deadline_s=60),
        )
        assert response.status == "error"
        assert "unsatisfiable" in response.error

    def test_malformed_body_is_a_clean_400(self, server_url):
        body = b"{not json"
        http_request = urllib.request.Request(
            server_url + "/v1/plan", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(http_request, timeout=5)
        assert info.value.code == 400

    def test_nan_deadline_is_a_400_naming_the_field(self, server_url):
        body = json.dumps({**QUICKSTART.to_json(), "deadline_s": float("nan")}).encode()
        http_request = urllib.request.Request(
            server_url + "/v1/plan", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(http_request, timeout=5)
        assert info.value.code == 400
        assert "deadline_s" in json.loads(info.value.read())["error"]

    def test_a_deadline_over_a_day_is_a_400_naming_the_field(self, server_url):
        body = json.dumps({**QUICKSTART.to_json(), "deadline_s": 24 * 3600.0 + 1}).encode()
        http_request = urllib.request.Request(
            server_url + "/v1/plan", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(http_request, timeout=5)
        assert info.value.code == 400
        assert "deadline_s" in json.loads(info.value.read())["error"]

    def test_unknown_fields_are_a_400_naming_each(self, server_url):
        body = json.dumps({**QUICKSTART.to_json(), "backend": "z3", "prun": False}).encode()
        http_request = urllib.request.Request(
            server_url + "/v1/plan", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(http_request, timeout=5)
        assert info.value.code == 400
        error = json.loads(info.value.read())["error"]
        assert "backend, prun" in error and "'backend' is gone" in error

    @pytest.mark.parametrize("field, value", [("encoding", "naive"), ("prune", False)])
    @pytest.mark.parametrize("mode", ["pinned", "routed"])
    def test_another_formula_is_a_400_naming_the_field(self, server_url, mode, field, value):
        request = QUICKSTART if mode == "pinned" else PlanRequest(
            "Allgather", "ring:4", size_bytes=1 << 20, synchrony=1
        )
        body = json.dumps({**request.to_json(), field: value}).encode()
        http_request = urllib.request.Request(
            server_url + "/v1/plan", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(http_request, timeout=5)
        assert info.value.code == 400
        assert f"'{field}' is gone" in json.loads(info.value.read())["error"]

    def test_unknown_endpoint_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(server_url + "/nope", timeout=5)
        assert info.value.code == 404

    def test_unreachable_service_raises_service_error(self):
        with pytest.raises(ServiceError):
            request_plan(
                "http://127.0.0.1:9",  # discard port: nothing listens
                PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3),
                timeout=0.5,
            )


class _CountingServer(PlanningHTTPServer):
    """Counts the connections the accept loop hands out."""

    accepted = 0

    def get_request(self):
        self.accepted += 1
        return super().get_request()


QUICKSTART = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=60)


def _in_threads(count, call):
    """Run ``call`` in ``count`` new threads; re-raise what any of them raised."""
    errors = []

    def run():
        try:
            call()
        except BaseException as exc:  # handed to the test's own thread
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    if errors:
        raise errors[0]


class TestKeepAlive:
    """The client functions keep one connection per thread and server."""

    def test_one_thread_uses_one_connection(self, service):
        server = _CountingServer(("127.0.0.1", 0), service)
        with ServerThread(server) as thread:
            # A new thread: it owns no connection to this port yet.
            def client():
                for _ in range(200):
                    assert request_plan(thread.url, QUICKSTART).ok
                assert "broker" in fetch_stats(thread.url)
                assert check_health(thread.url)

            _in_threads(1, client)
        assert server.accepted == 1

    def test_two_threads_use_two_connections(self, service):
        server = _CountingServer(("127.0.0.1", 0), service)
        with ServerThread(server) as thread:
            _in_threads(2, lambda: [request_plan(thread.url, QUICKSTART) for _ in range(20)])
        assert server.accepted == 2

    def test_kept_alive_requests_do_not_wait_for_delayed_acks(self, server_url):
        # Header and body in two segments cost a kept-alive peer about
        # 40 ms per request (Nagle + delayed ACK): 50 would take 2 s.
        assert request_plan(server_url, QUICKSTART).ok
        started = time.perf_counter()
        for _ in range(50):
            assert request_plan(server_url, QUICKSTART).source == "cache"
        assert time.perf_counter() - started < 1.0

    def test_reconnects_once_after_a_restart_on_the_same_port(self, service):
        with ServerThread(make_server(service, port=0)) as first:
            url = first.url
            assert request_plan(url, QUICKSTART).ok
        second = _CountingServer(("127.0.0.1", urlsplit(url).port), service)
        with ServerThread(second):
            # The kept connection went with the first server: one new one.
            assert request_plan(url, QUICKSTART).ok
            assert request_plan(url, QUICKSTART).ok
        assert second.accepted == 1

    def test_a_stopped_server_answers_on_no_kept_connection(self, service):
        with ServerThread(make_server(service, port=0)) as thread:
            url = thread.url
            assert request_plan(url, QUICKSTART).ok
        # The handler thread of the kept connection outlives the accept
        # loop; server_close hangs up on it, so this fails to *connect*.
        with pytest.raises(ServiceError, match="cannot reach planning service"):
            request_plan(url, QUICKSTART)

    def test_reconnects_once_after_the_idle_timeout(self, service, monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        server = _CountingServer(("127.0.0.1", 0), service)
        with ServerThread(server) as thread:
            assert request_plan(thread.url, QUICKSTART).ok
            time.sleep(0.6)  # the handler hangs up on the idle connection
            assert request_plan(thread.url, QUICKSTART).ok
            assert request_plan(thread.url, QUICKSTART).ok
        assert server.accepted == 2

    def test_error_statuses_map_as_before(self, service, server_url):
        # 400 with an error dict -> ServiceError naming status and reason.
        with pytest.raises(ServiceError, match=r"rejected the request \(HTTP 400\).*nope"):
            request_plan(server_url, PlanRequest("Allgather", "nope:3", size_bytes=8))
        # 422 with a PlanResponse body -> that response, on the same connection.
        unsat = request_plan(
            server_url,
            PlanRequest("Allgather", "ring:4", chunks=1, steps=1, rounds=1, deadline_s=60),
        )
        assert unsat.status == "error" and "unsatisfiable" in unsat.error
        # 503 (the service refuses work) -> ServiceError.
        service.stop()
        with pytest.raises(ServiceError, match=r"rejected the request \(HTTP 503\)"):
            request_plan(server_url, QUICKSTART)
        with pytest.raises(ServiceError, match="cannot fetch stats .*HTTP Error 404"):
            fetch_stats(server_url + "/nowhere")


def _raw_exchange(url, payload, *, timeout=2.0):
    """Send raw bytes; everything the server answers until it hangs up or
    falls silent for ``timeout`` seconds."""
    parts = urlsplit(url)
    received = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=timeout) as sock:
        sock.sendall(payload)
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                received += data
        except socket.timeout:
            pass
    return received.decode("latin-1")


class TestRequestBodyIsOutsideInput:
    """``Content-Length`` and the path are the peer's to choose."""

    def test_negative_content_length_is_a_400_not_a_pinned_thread(self, server_url):
        answer = _raw_exchange(
            server_url, b"POST /v1/plan HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n"
        )
        assert answer.startswith("HTTP/1.1 400 ") and "Connection: close" in answer

    def test_non_integer_content_length_is_a_400(self, server_url):
        answer = _raw_exchange(
            server_url, b"POST /v1/fault HTTP/1.1\r\nHost: x\r\nContent-Length: lots\r\n\r\n"
        )
        assert answer.startswith("HTTP/1.1 400 ") and "Connection: close" in answer

    def test_oversized_body_is_a_413_without_being_read(self, server_url):
        declared = server_module.MAX_BODY_BYTES + 1
        answer = _raw_exchange(
            server_url,
            f"POST /v1/plan HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n".encode(),
        )
        assert answer.startswith("HTTP/1.1 413 ") and "Connection: close" in answer

    def test_unknown_post_path_consumes_its_body(self, server_url):
        body = b'{"hello": "world"}'
        answer = _raw_exchange(
            server_url,
            b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            % (len(body), body),
        )
        statuses = re.findall(r"HTTP/1\.1 (\d{3}) ", answer)
        assert statuses == ["404", "200"], answer


class TestSubprocessSmoke:
    """The CI smoke step: serve, request and run as real processes."""

    def _env(self, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def test_serve_request_run_round_trip(self, tmp_path):
        env = self._env(tmp_path / "cache")
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listening banner in {banner!r}"
            url = match.group(0)
            for _ in range(100):
                if check_health(url):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("service never became healthy")

            plan_path = tmp_path / "plan.json"
            request = subprocess.run(
                [
                    sys.executable, "-m", "repro", "request",
                    "Allgather", "-t", "ring:4", "-C", "1", "-S", "2", "-R", "3",
                    "--deadline", "120", "--url", url, "-o", str(plan_path),
                ],
                capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
            )
            assert request.returncode == 0, request.stderr
            assert "-> ok" in request.stdout
            assert plan_path.exists()
            assert json.loads(plan_path.read_text())["format"] == "repro-sccl/plan"

            # The returned bundle re-verifies on import and executes.
            run = subprocess.run(
                [sys.executable, "-m", "repro", "run", str(plan_path)],
                capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            assert "re-verified" in run.stdout
            assert "functional execution: OK" in run.stdout
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            finally:
                server.stdout.close()

    def test_sigterm_is_a_clean_shutdown(self, tmp_path):
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=self._env(tmp_path / "cache"), cwd=REPO_ROOT,
        )
        try:
            url = re.search(r"http://\S+", server.stdout.readline()).group(0)
            assert request_plan(url, QUICKSTART).ok
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
            assert "served 1 request(s)" in server.stdout.read()
        finally:
            server.kill()
            server.wait()
            server.stdout.close()

    def test_sigterm_does_not_wait_for_a_worker_mid_solve(self, tmp_path):
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=self._env(tmp_path / "cache"), cwd=REPO_ROOT,
        )
        try:
            url = re.search(r"http://\S+", server.stdout.readline()).group(0)
            # A paper-scale row: minutes of encoding and search in a worker thread.
            heavy = PlanRequest("Allgather", "dgx1", chunks=6, steps=7, rounds=7)
            outcome = []

            def ask():
                try:
                    outcome.append(request_plan(url, heavy, timeout=30).status)
                except ServiceError as exc:
                    outcome.append(str(exc))

            client = threading.Thread(target=ask)
            client.start()
            time.sleep(1.0)
            assert fetch_stats(url)["broker"]["inflight"] == 1
            server.send_signal(signal.SIGTERM)
            # Well inside the 5 s a supervisor (and bench/) waits before SIGKILL.
            assert server.wait(timeout=4) == 0
            client.join(timeout=10)
            assert outcome and outcome[0] != "ok"
        finally:
            server.kill()
            server.wait()
            server.stdout.close()

    def test_remote_stats_request_loads_no_synthesis_stack(self, server_url, tmp_path):
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['request', '--stats', '--url', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith(('repro.engine', 'repro.core'))))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, server_url],
            capture_output=True, text=True, env=self._env(tmp_path / "cache"),
            cwd=REPO_ROOT, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "broker:" in result.stdout
        assert result.stdout.splitlines()[-1] == "[]"

    def test_request_local_answers_without_a_server(self, tmp_path):
        env = self._env(tmp_path / "cache")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "request",
                "Allgather", "-t", "ring:4", "-C", "1", "-S", "2", "-R", "3",
                "--local", "--cache-dir", str(tmp_path / "cache"),
            ],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "-> ok" in result.stdout
