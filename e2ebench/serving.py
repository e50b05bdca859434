"""The serving half of a run: start ``repro-traffic serve`` as a subprocess,
drive it open-loop at fixed rates and up a rate ladder, reload bundles under
load, and check sampled answers against the in-process ``ModelServer``."""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from arith import ladder_rates, ladder_top, percentile, rung_passes, tail_percentile
from loadgen import Request, RunReport, encode_request, generator_sustains, run_open_loop
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Requests per fixed-rate phase and per ladder rung, so p99 has ten samples
#: beyond it.
RUNG_REQUESTS = 1000
SAMPLE_EVERY = 7
#: seconds of low-rate load that reloads run under, for mixes that do not
#: reload during the measured phases
RELOAD_PHASE_S = 2.0
#: traced runs probe each kind the mix lacks: kind -> (mix, rate)
PROBES = {"pattern": ("lookup", 400.0), "region": ("lookup", 400.0),
          "decompose": ("lookup", 400.0), "post_decompose": ("swap", 200.0),
          "post_region": ("swap", 200.0)}
BATCH_IDS = 16
WARM_BATCH = 64
#: answer kinds of each mix; bundles fitted without a city have no regions
KINDS = {"lookup": ("pattern", "region", "decompose"), "swap": ("post_decompose", "post_region")}
ZIPF_S = 1.1


@dataclass(frozen=True)
class ServeSpec:
    mix: str  # "lookup": single-tower GETs; "swap": 16-tower POSTs
    low: float
    high: float
    limit_ms: float
    #: seconds between reloads during the low and high phases (0: reload
    #: only in a separate phase after the measured ones)
    reload_every_s: float = 0.0


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def make_requests(mix: str, tower_ids: list[int], count: int, rng: random.Random,
                  kinds: tuple[str, ...], request_ids: bool = False, first_id: int = 0
                  ) -> list[Request]:
    """``count`` requests of the mix over ``kinds`` in equal shares.

    ``request_ids`` tags each path with ``?rid=`` for server-side spans.
    """
    requests = []
    if mix == "lookup":
        order = list(tower_ids)
        rng.shuffle(order)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(order))]
        towers = rng.choices(order, weights, k=count)
    else:
        towers = [tuple(rng.sample(tower_ids, BATCH_IDS)) for _ in range(count)]
    shares = [kinds[i % len(kinds)] for i in range(count)]
    rng.shuffle(shares)
    for i, (kind, tower) in enumerate(zip(shares, towers)):
        tag = f"?rid={first_id + i}" if request_ids else ""
        if mix == "lookup":
            raw = encode_request("GET", f"/{kind}/{tower}{tag}")
            requests.append(Request(kind, raw, (tower,)))
        else:
            raw = encode_request("POST", f"/{kind.split('_')[1]}{tag}", {"towers": list(tower)})
            requests.append(Request(kind, raw, tower))
    return requests


def warm_up_requests(tower_ids: list[int], labelled: bool) -> list[Request]:
    """One request per tower and answer kind, so caches start full.

    Decompose and region answers are cached per tower whichever route asked,
    so they are warmed in batches of WARM_BATCH ids.
    """
    requests = [Request("pattern", encode_request("GET", f"/pattern/{tower}"), (tower,))
                for tower in tower_ids]
    chunks = [tower_ids[i:i + WARM_BATCH] for i in range(0, len(tower_ids), WARM_BATCH)]
    for kind in ("decompose", "region") if labelled else ("decompose",):
        requests += [Request(f"post_{kind}", encode_request("POST", f"/{kind}",
                                                           {"towers": chunk}), tuple(chunk))
                     for chunk in chunks]
    return requests


# ----------------------------------------------------------------------
# Expected answers
# ----------------------------------------------------------------------


class Oracle:
    """In-process answers of one bundle, as ``ModelServer`` gives them."""

    def __init__(self, bundle: Path) -> None:
        from repro.io.server import ModelServer

        self.server = ModelServer.from_artifact(bundle)
        self._result = self.server.result
        batch = self.server.decompose_all()
        self.rows = {row["tower_id"]: row for row in batch.as_rows()}
        self.features = {int(t): batch.features[i] for i, t in enumerate(batch.tower_ids)}
        reps = self._result.representatives
        self.vertices = {str(int(label)): reps.features[i]
                         for i, label in enumerate(reps.cluster_labels)}

    def answer(self, kind: str, tower: int) -> dict:
        if kind == "pattern":
            return json.loads(json.dumps(self.server.pattern_of(tower).as_row()))
        if kind in ("decompose", "post_decompose"):
            return self.rows[tower]
        row = self._result.vectorized.row_of(tower)
        region = self._result.labeling.region_of(int(self._result.labels[row]))
        return {"tower_id": tower, "region": region.value}

    def accepts(self, kind: str, tower: int, row: dict) -> bool:
        """Whether ``row`` is this bundle's answer for ``tower``.

        With more components than the feature space has dimensions plus one,
        a tower can have several optimal convex decompositions, and which
        one the batched solver returns depends on the batch it ran in.  So a
        decomposition is accepted when its weights are convex, rebuild the
        tower's feature at the residual it states, and that residual is the
        optimum's, each to the solver's documented 1e-9.
        """
        expected = self.answer(kind, tower)
        if kind not in ("decompose", "post_decompose"):
            return same(row, expected)
        weights = row.get("coefficients")
        if (row.get("tower_id") != tower or not isinstance(weights, dict)
                or weights.keys() != expected["coefficients"].keys()):
            return False
        feature = self.features[tower]
        tol = 1e-9 * max(1.0, float(np.linalg.norm(feature)))
        if min(weights.values()) < -1e-9 or abs(sum(weights.values()) - 1.0) > 1e-9:
            return False
        point = sum(weight * self.vertices[label] for label, weight in weights.items())
        distance = float(np.linalg.norm(point - feature))
        return (abs(distance - row["residual"]) <= tol
                and abs(row["residual"] - expected["residual"]) <= tol)


def same(actual, expected) -> bool:
    """Equal, with floats within a relative 1e-9."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (isinstance(actual, (int, float)) and isinstance(expected, (int, float))
                and math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12))
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(same(actual[k], expected[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(same(a, e) for a, e in zip(actual, expected)))
    return actual == expected


def mismatches(kind: str, towers: tuple, body: bytes, oracles: list[Oracle]) -> list:
    """Rows of a 200 body that equal no bundle's answer for their tower."""
    payload = json.loads(body)
    if kind.startswith("post_"):
        rows = payload.get("decompositions" if kind == "post_decompose" else "regions")
    else:
        rows = [payload]
    if not isinstance(rows, list) or len(rows) != len(towers):
        return [payload]
    return [{"tower": tower, "served": row,
             "expected": [oracle.answer(kind, tower) for oracle in oracles]}
            for row, tower in zip(rows, towers)
            if not any(oracle.accepts(kind, tower, row) for oracle in oracles)]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class ServerProcess:
    """``repro-traffic serve`` on an ephemeral port; SIGINT stops it."""

    def __init__(self, bundle: Path, spans_path: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        serve = ["serve", "--model", str(bundle), "--port", "0"]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            argv = [sys.executable, str(HERE / "tracedserve.py"), str(spans_path), *serve]
        self.proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if " at http://" not in line:
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def get(self, path: str) -> tuple[int, dict]:
        return self.request("GET", path, None)

    def request(self, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60.0)
        try:
            data = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=data)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()


class Reloader:
    """Posts ``/reload`` every ``every_s`` seconds, alternating two bundles."""

    def __init__(self, server: ServerProcess, bundles: list[Path], every_s: float) -> None:
        self.server, self.bundles, self.every_s = server, bundles, every_s
        self.round_trips: list[float] = []
        self.errors = 0
        self._next = 1  # the server starts on bundles[0]
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def reload_once(self) -> None:
        target = self.bundles[self._next % len(self.bundles)]
        start = time.perf_counter()
        try:
            status, _ = self.server.request("POST", "/reload", {"model": str(target)})
        except (OSError, http.client.HTTPException, ValueError):
            status = None
        if status == 200:
            self.round_trips.append(time.perf_counter() - start)
            self._next += 1
        else:
            self.errors += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.every_s):
            self.reload_once()

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop reloading; waits for a reload in flight."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=120)
            self._thread = None


# ----------------------------------------------------------------------
# One serving session
# ----------------------------------------------------------------------


def start_and_warm(bundle: Path, warm: list[Request], spans_path: Path | None
                   ) -> tuple[ServerProcess, float]:
    """Start a server; seconds to its first healthy answer plus the warm-up."""
    start = time.perf_counter()
    server = ServerProcess(bundle, spans_path)
    try:
        server.wait_healthy()
        report = run_open_loop("127.0.0.1", server.port, warm, 1e6, connections=CONNECTIONS)
    except BaseException:
        server.stop()
        raise
    if report.failed:
        server.stop()
        raise RuntimeError(f"{report.failed} warm-up requests failed")
    return server, time.perf_counter() - start


def read_stats(server: ServerProcess) -> dict:
    """``/stats`` counters the benchmark reads; a missing one is recorded as absent."""
    try:
        status, stats = server.get("/stats")
    except OSError:
        return {"absent": ["/stats"]}
    if status != 200:
        return {"absent": ["/stats"]}
    counters = stats.get("metrics", {}).get("counters", {}) if isinstance(stats, dict) else {}
    wanted = {
        "cache_hits": "service.cache_hits",
        "cache_misses": "service.cache_misses",
        "batch_flushes": "service.batch_flushes.",
        "batched_requests": "service.batched_requests.",
        "server_queries": "server.queries",
    }
    found, absent = {}, []
    for key, name in wanted.items():
        if name.endswith("."):
            values = [v for k, v in counters.items() if k.startswith(name)]
            if values:
                found[key] = sum(values)
            else:
                absent.append(name + "*")
        elif name in counters:
            found[key] = counters[name]
        else:
            absent.append(name)
    found["absent"] = absent
    return found


def counter_deltas(before: dict, after: dict) -> dict:
    """Counters accrued between two :func:`read_stats` snapshots."""
    deltas = {key: value - before[key] for key, value in after.items()
              if key != "absent" and key in before}
    deltas["absent"] = sorted(set(before["absent"]) | set(after["absent"]))
    return deltas


def serve_session(
    spec: ServeSpec,
    bundles: list[Path],
    tower_ids: list[int],
    seed: int,
    seconds: float,
    *,
    labelled: bool = True,
    starts: int = 1,
    recorder: SpanRecorder | None = None,
    spans_path: Path | None = None,
) -> dict:
    """Serve ``bundles[0]`` and measure it; ``bundles[1]`` is the reload target.

    ``starts`` servers are started in turn (each timed to its first healthy
    answer plus warm-up) and the last one is measured: RUNG_REQUESTS at the
    low rate, as many at the high rate, then the ladder above ``high`` for
    about ``seconds``.  With a ``recorder`` every request becomes a client
    span, and kinds the mix lacks are probed afterwards so every kind has
    latencies.
    """
    rng = random.Random(seed)
    traced = recorder is not None
    made = 0

    def requests_of(mix: str, count: int) -> list[Request]:
        nonlocal made
        kinds = tuple(k for k in KINDS[mix] if labelled or not k.endswith("region"))
        requests = make_requests(mix, tower_ids, count, rng, kinds, traced, made)
        made += count
        return requests

    warm = warm_up_requests(tower_ids, labelled)
    setups = []
    server = None
    for _ in range(starts):
        if server is not None:
            server.stop()
        server, seconds_to_ready = start_and_warm(bundles[0], warm, spans_path)
        setups.append(seconds_to_ready)

    reports: dict[str, RunReport] = {}
    sampled: list[tuple[str, tuple, bytes]] = []
    reloader = Reloader(server, bundles, spec.reload_every_s or RELOAD_PHASE_S / 8)

    def phase(name: str, rate: float, count: int, mix: str = spec.mix) -> RunReport:
        requests = requests_of(mix, count)
        first_id = made - count
        span_start = time.perf_counter()
        report = run_open_loop("127.0.0.1", server.port, requests, rate,
                               connections=CONNECTIONS,
                               keep_body=lambda index: index % SAMPLE_EVERY == 0)
        reports[name] = report
        sampled.extend((o.kind, o.towers, o.body) for o in report.outcomes
                       if o.body is not None and o.ok)
        if traced:
            parent = recorder.add(None, f"rung.{name}", None, span_start, time.perf_counter())
            for outcome in report.outcomes:
                if outcome.done is not None:
                    recorder.add(None, f"serve.{outcome.kind}", parent, outcome.due,
                                 outcome.done, request_id=first_id + outcome.index)
        return report

    def passes(report: RunReport) -> bool:
        return rung_passes(report.p99_ms(), report.failed, report.backlog_growing,
                           spec.limit_ms)

    try:
        cpu_before, stats_before = server.cpu_seconds(), read_stats(server)
        if spec.reload_every_s:
            reloader.start()
        low = phase("low", spec.low, RUNG_REQUESTS)
        high = phase("high", spec.high, RUNG_REQUESTS)
        # The ladder runs without reloads, so its top does not depend on
        # which rung a reload happens to land in.
        reloader.stop()
        ladder, passed = [], []
        generator_bound = ladder_cut = False
        budget_end = time.perf_counter() + seconds
        for k, rate in enumerate(ladder_rates(spec.high, 200), start=1):
            if time.perf_counter() > budget_end:
                ladder_cut = True
                break
            report = phase(f"ladder{k}", rate, RUNG_REQUESTS)
            ladder.append(report)
            passed.append(passes(report))
            if not passed[-1]:
                generator_bound = not generator_sustains(rate, CONNECTIONS)
                break
        measured = list(reports.values())
        served = sum(r.attempted for r in measured)
        cpu_ms_per_req = 1000.0 * (server.cpu_seconds() - cpu_before) / served
        stats = counter_deltas(stats_before, read_stats(server))
        if not spec.reload_every_s:
            # Reloads under the low rate, after the measured phases.
            reloader.start()
            phase("reload", spec.low, int(spec.low * RELOAD_PHASE_S))
            reloader.stop()
        kind_latencies: dict[str, list[float]] = {}
        for report in measured:
            for outcome, latency in zip(report.outcomes, report.latencies_ms()):
                kind_latencies.setdefault(outcome.kind, []).append(latency)
        if traced:
            for kind, (mix, rate) in PROBES.items():
                if kind not in kind_latencies and (labelled or not kind.endswith("region")):
                    probe = phase(f"probe.{kind}", rate, RUNG_REQUESTS * len(KINDS[mix]), mix)
                    kind_latencies[kind] = [
                        latency for outcome, latency in zip(probe.outcomes, probe.latencies_ms())
                        if outcome.kind == kind]
        peak_rss_mb = server.peak_rss_mb()
    finally:
        reloader.stop()
        server.stop()

    top = ladder_top(passed)
    max_rate = ladder[top].achieved_rps if top >= 0 else high.achieved_rps
    hits, misses = stats.get("cache_hits"), stats.get("cache_misses")
    flushes, batched = stats.get("batch_flushes"), stats.get("batched_requests")
    late = [v for r in measured for v in r.late_ms()]
    return {
        "setup_runs_s": setups,
        "p50_ms.low": percentile(low.latencies_ms(), 50.0),
        "p99_ms.low": low.p99_ms(),
        "p50_ms.high": percentile(high.latencies_ms(), 50.0),
        "p99_ms.high": high.p99_ms(),
        "max_rate_rps": max_rate,
        "max_rate_valid": top >= 0,
        "reload_s": statistics.median(reloader.round_trips) if reloader.round_trips else None,
        "reloads": len(reloader.round_trips),
        "reload_errors": reloader.errors,
        "transport_errors": sum(r.transport_errors for r in reports.values()),
        "peak_rss_mb": peak_rss_mb,
        "cpu_ms_per_req": cpu_ms_per_req,
        "cache_hit_ratio": hits / (hits + misses) if hits is not None and misses is not None
        and hits + misses else None,
        "batch_mean_size": batched / flushes if batched is not None and flushes else None,
        "stats_absent": stats.get("absent", []),
        "late_ms": late,
        "late_ms_tail": tail_percentile(late),
        "generator_bound": generator_bound,
        "ladder_cut": ladder_cut,
        "ladder": [{"rate": r.rate, "achieved_rps": r.achieved_rps, "p99_ms": r.p99_ms(),
                    "failed": r.failed, "backlog_growing": r.backlog_growing, "passed": ok}
                   for r, ok in zip(ladder, passed)],
        "reports": reports,
        "sampled": sampled,
        "kind_latencies_ms": kind_latencies,
    }
