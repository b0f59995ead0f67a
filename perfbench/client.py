"""The server under test as a child process, and a stock HTTP/1.1 client.

The client is ``http.client`` on keep-alive connections with no socket
tuning (no ``TCP_NODELAY``, no ``TCP_QUICKACK``): what a plain Python
caller sees, including any Nagle/delayed-ACK stall on the server's side.
"""

import http.client
import json
import math
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DATA_SEED, DATASET, RESOLUTION, SCALE, FollowChunks, gap_item, payload

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Keep-alive connections (one client thread each) the load runs on:
#: ``nproc`` of the 2-vCPU machine the baseline was taken on.
CONNECTIONS = 2
#: Follow-daemon cadence used by every server the benchmark launches.
POLL_INTERVAL_S = 0.05
REFRESH_INTERVAL_S = 0.2


class ServerError(RuntimeError):
    """The server under test failed to start or answer."""


class Server:
    """One ``repro.service`` process: fit into an empty registry, then serve.

    With *spans_path*, the process runs under ``traced_server.py``,
    which records layer spans and writes them there at exit.
    """

    def __init__(self, root, workdir, cache_dir, name, spans_path=None):
        self.workdir = Path(workdir)
        self.registry = self.workdir / f"registry-{name}"
        self.dump = self.workdir / f"dump-{name}.csv"
        self.dump.write_text(FollowChunks.HEADER)
        self.log_path = self.workdir / f"server-{name}.log"
        service_args = [
            "--fit", DATASET,
            "--scale", repr(SCALE),
            "--seed", str(DATA_SEED),
            "--resolution", str(RESOLUTION),
            "--registry", str(self.registry),
            "--data-cache", str(cache_dir),
            "--serve", "--port", "0",
            "--follow", str(self.dump),
            "--poll-interval", repr(POLL_INTERVAL_S),
            "--refresh-interval", repr(REFRESH_INTERVAL_S),
        ]  # fmt: skip
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.service", *service_args]
        else:
            launcher = Path(__file__).with_name("traced_server.py")
            argv = [sys.executable, str(launcher), str(spans_path), *service_args]
        env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"), PYTHONUNBUFFERED="1")
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self.port = None

    def wait_ready(self, probe, timeout_s=120.0):
        """Block until the probe gap gets a 200; returns seconds since launch."""
        deadline = self.started + timeout_s
        # Raw reads: a buffered readline could pull the "serving on" line
        # into Python's buffer, where select() no longer sees it.
        fd = self.proc.stdout.fileno()
        pending = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while self.port is None:
                if b"\n" in pending:
                    line, pending = pending.split(b"\n", 1)
                    if line.startswith(b"serving on http://"):
                        self.port = int(line.split()[2].rsplit(b":", 1)[1])
                    continue
                if not sel.select(deadline - time.perf_counter()):
                    raise ServerError(f"server not serving after {timeout_s:g} s: {self.tail()}")
                data = os.read(fd, 65536)
                if not data:
                    raise ServerError(f"server exited before serving: {self.tail()}")
                pending += data
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = json.dumps(payload([gap_item(probe, "probe")])).encode()
            while True:
                try:
                    status, _ = post(conn, body, "setup")
                except OSError:
                    status = None
                    conn.close()
                if status == 200:
                    return time.perf_counter() - self.started
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise ServerError(f"no 200 on /impute: {self.tail()}")
                time.sleep(0.01)
        finally:
            conn.close()

    def cpu_ticks(self):
        """utime + stime of the server process, in clock ticks."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def append(self, text):
        """Append *text* to the followed dump (visible once this returns)."""
        with open(self.dump, "a", encoding="utf-8") as handle:
            handle.write(text)

    def stop(self):
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode

    def tail(self):
        try:
            return self.log_path.read_text()[-2000:]
        except OSError:
            return str(self.log_path)


def post(conn, body, request_id):
    """POST /impute; returns ``(status, response bytes)``."""
    conn.request(
        "POST",
        "/impute",
        body=body,
        headers={"Content-Type": "application/json", "X-Request-Id": request_id},
    )
    resp = conn.getresponse()
    return resp.status, resp.read()


def check_response(status, data, items):
    """The response checks every request must pass.

    Returns ``(error or None, parsed body or None)``: status 200, one
    result per gap in order with the ids echoed, finite coordinates,
    endpoints equal to the request's, and ``max_points`` respected.
    """
    if status != 200:
        return f"status {status}", None
    try:
        body = json.loads(data)
        results = body["results"]
        features = body["geojson"]["features"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed body: {exc!r}", None
    if len(results) != len(items) or len(features) != len(items):
        return f"{len(results)} results for {len(items)} gaps", None
    for item, result, feature in zip(items, results, features):
        rid = item["id"]
        if result.get("request_id") != rid or feature["properties"].get("request_id") != rid:
            return f"request id {rid!r} not echoed in order", None
        coords = feature["geometry"]["coordinates"]
        if len(coords) < 2:
            return f"{rid}: path has {len(coords)} points", None
        if not all(math.isfinite(c) for point in coords for c in point):
            return f"{rid}: non-finite coordinate", None
        first, last = coords[0], coords[-1]
        if [first[1], first[0]] != item["start"] or [last[1], last[0]] != item["end"]:
            return f"{rid}: path endpoints differ from the request's", None
        budget = item.get("max_points")
        if budget is not None and len(coords) > budget:
            return f"{rid}: {len(coords)} points over max_points {budget}", None
    return None, body


class Recorder:
    """Per-request outcomes of one timed window (thread-safe)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies = []  # seconds, successful requests only
        self.by_rid = {}  # request id -> latency, successful requests of one round
        self.gaps = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.revisions = []  # (completion time, lowest revision served)
        self.first_sent = None
        self.last_done = None
        self.wall_s = 0.0  # first send to last completion, summed over merges
        self.appends = []  # follow-refresh: when each dump chunk was appended

    def record(self, rid, sent, done, items, status, data):
        error, body = check_response(status, data, items)
        with self.lock:
            self.attempted += 1
            if self.first_sent is None or sent < self.first_sent:
                self.first_sent = sent
            if self.last_done is None or done > self.last_done:
                self.last_done = done
            if error is None:
                self.latencies.append(done - sent)
                self.by_rid[rid] = done - sent
                self.gaps += len(items)
                self.revisions.append(
                    (done, min(r["provenance"]["revision"] for r in body["results"]))
                )
            else:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(error)

    def record_refused(self, exc):
        with self.lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"refused: {exc!r}")

    def close(self):
        if self.first_sent is not None:
            self.wall_s = self.last_done - self.first_sent
        return self

    def merge(self, other):
        """Pool another round's samples into this recorder."""
        self.latencies += other.latencies
        self.gaps += other.gaps
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.wall_s += other.wall_s


def _send(conn_box, port, items, request_id):
    """One POST on a keep-alive connection, reconnecting after an error."""
    if conn_box[0] is None:
        conn_box[0] = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    body = json.dumps(payload(items)).encode()
    sent = time.perf_counter()
    try:
        status, data = post(conn_box[0], body, request_id)
    except (OSError, http.client.HTTPException):
        conn_box[0].close()
        conn_box[0] = None
        raise
    return sent, time.perf_counter(), status, data


def closed_loop(port, next_items, seconds, on_tick=None):
    """Each connection sends its next batch when the previous answers.

    *next_items()* returns the next batch's items, or ``None`` once the
    workload's inputs are used up; the window also ends at *seconds*.
    *on_tick(elapsed)* runs on the caller's thread every 10 ms while the
    window is open (the follow-refresh dump writer).
    """
    rec = Recorder()
    lock = threading.Lock()
    counter = [0]
    deadline = time.perf_counter() + seconds

    def worker():
        conn_box = [None]
        try:
            while time.perf_counter() < deadline:
                with lock:
                    items = next_items()
                    n = counter[0]
                    counter[0] += 1
                if items is None:
                    return
                try:
                    sent, done, status, data = _send(conn_box, port, items, f"w{n}")
                except (OSError, http.client.HTTPException) as exc:
                    rec.record_refused(exc)
                    continue
                rec.record(f"w{n}", sent, done, items, status, data)
        finally:
            if conn_box[0] is not None:
                conn_box[0].close()

    _run_threads(worker, CONNECTIONS, on_tick)
    return rec.close()


def _run_threads(target, count, on_tick):
    """Run *count* copies of *target*, ticking *on_tick* meanwhile; an
    exception in any copy is re-raised here once all have stopped."""
    errors = []

    def guarded():
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(count)]
    for t in threads:
        t.start()
    started = time.perf_counter()
    while any(t.is_alive() for t in threads):
        if on_tick is not None:
            on_tick(time.perf_counter() - started)
        time.sleep(0.01)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def request_batches(port, batch_items, prefix):
    """Send batches one after another; returns the parsed bodies.

    Raises :class:`ServerError` when a response fails its checks.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    bodies = []
    try:
        for n, items in enumerate(batch_items):
            status, data = post(conn, json.dumps(payload(items)).encode(), f"{prefix}{n}")
            error, body = check_response(status, data, items)
            if error is not None:
                raise ServerError(f"{prefix} batch {n}: {error}")
            bodies.append(body)
    finally:
        conn.close()
    return bodies


def wait_for_revision(port, probe, revision, timeout_s=60.0):
    """Probe /impute until a response is served at *revision* or later;
    returns the completion time of that response."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    items = [gap_item(probe, "lag")]
    body = json.dumps(payload(items)).encode()
    deadline = time.perf_counter() + timeout_s
    try:
        while time.perf_counter() < deadline:
            status, data = post(conn, body, "lag")
            done = time.perf_counter()
            error, parsed = check_response(status, data, items)
            if error is not None:
                raise ServerError(f"refresh probe: {error}")
            if parsed["results"][0]["provenance"]["revision"] >= revision:
                return done
            time.sleep(0.01)
    finally:
        conn.close()
    raise ServerError(f"revision {revision} never served within {timeout_s:g} s")
