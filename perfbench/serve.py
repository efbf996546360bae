"""The ``serve`` workload: an open loop against ``python -m repro.serve serve``.

One generator (this process) drives a fresh server over two connections.
Set-up starts the server ``SETUPS`` times (the median set-up and the fastest
warm-up are reported) and sends a seeded hot set of grids one after another:
each is a first-seen point, so that warm-up is the cold-serving figure.  The measured window then sends requests
on a fixed schedule at ``NOMINAL_RPS``, timing each one from when it was
*due*, so a stall on the server's event loop is charged to every request
queued behind it.  The mix is seeded:

* ~95.5% exact repeats of hot points, Zipf-weighted (response-memo hits),
* ~3% hot grids with a never-used iteration count (plan-cache hit, priced),
* ~1.5% never-seen grids of the same size range (a plan build on the loop).

Every served payload is compared byte for byte with
``evaluate(problem, backend="analytic", request=...)`` computed here, outside
the timed window.  The traced mode adds a search of a fixed rate ladder for
the highest rate whose p99 stays within ``P99_LIMIT_MS`` with no failures and
no growing backlog.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR, ROOT, Outcome, child_env, median, monotonic, percentile,
    proc_peak_rss_mb, work_path,
)

NOMINAL_RPS = 200
P99_LIMIT_MS = 50.0
LADDER = (150, 200, 250, 300, 350, 400, 450, 500, 600, 700, 800, 1000)
HOT_SET = 150
SETUPS = 3
CONNECTIONS = 2
#: Grid shapes of hot and never-seen points (the ``bench-client`` range).
GRID_ROWS, GRID_COLS = range(9, 49), range(9, 34)
ITERATIONS = (1, 3, 5, 10)
#: One never-seen grid every COLD_EVERY requests (~1.5%), one re-priced hot
#: grid every PRICE_EVERY (~3%); the rest are exact repeats.
COLD_EVERY, PRICE_EVERY = 67, 33


class Mix:
    """Seeded request generator: a Zipf-weighted hot set plus fresh points.

    Request classes come at fixed intervals from a seeded phase, and hot and
    never-seen grids are dealt round-robin from ten size bands, so every
    seed's warm-up and window hold the same share and size spread of plan
    builds.
    """

    def __init__(self, seed: int, hot: int) -> None:
        self.rng = random.Random(seed)
        grids = [(r, c) for r in GRID_ROWS for c in GRID_COLS]
        self.rng.shuffle(grids)
        banded = self._banded(grids, bands=10)
        self.hot = [self._point(next(banded), self.rng.choice(ITERATIONS)) for _ in range(hot)]
        self.fresh = banded
        weights = [1.0 / (rank + 1) for rank in range(hot)]
        self.cum_weights = [sum(weights[: i + 1]) for i in range(hot)]
        self.used_iterations = {tuple(p["grid"]): {p["iterations"]} for p in self.hot}
        self.cold_phase = self.rng.randrange(COLD_EVERY)
        self.price_phase = self.rng.randrange(PRICE_EVERY)
        self.sent = 0

    def _banded(self, grids: List[Tuple[int, int]], bands: int):
        by_area = sorted(grids, key=lambda g: g[0] * g[1])
        size = len(by_area) // bands
        strata = [by_area[k * size:(k + 1) * size] for k in range(bands)]
        for stratum in strata:
            self.rng.shuffle(stratum)
        for index in range(size):
            order = list(range(bands))
            self.rng.shuffle(order)
            for band in order:
                yield strata[band][index]

    def _point(self, grid, iterations: int) -> Dict:
        from repro.serve.protocol import make_point

        system = "baseline" if self.rng.random() < 0.25 else "smache"
        return make_point(grid, system=system, iterations=iterations)

    def _zipf(self) -> Dict:
        return self.rng.choices(self.hot, cum_weights=self.cum_weights)[0]

    def requests(self, count: int) -> List[Tuple[str, Dict]]:
        """The next ``count`` (class, point) pairs; classes are repeat/price/cold."""
        out = []
        for index in range(self.sent, self.sent + count):
            if index % COLD_EVERY == self.cold_phase:
                out.append(("cold", self._point(next(self.fresh), self.rng.choice(ITERATIONS))))
            elif index % PRICE_EVERY == self.price_phase:
                base = self._zipf()
                used = self.used_iterations[tuple(base["grid"])]
                iterations = self.rng.randrange(11, 1_000_000)
                while iterations in used:
                    iterations = self.rng.randrange(11, 1_000_000)
                used.add(iterations)
                out.append(("price", dict(base, iterations=iterations)))
            else:
                out.append(("repeat", self._zipf()))
        self.sent += count
        return out


class Server:
    """A served process: ``python -m repro.serve serve`` or its traced launcher."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.serve", "serve", "--port", "0"]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_server.py"), spans_path]
        self.log = open(work_path("serve", f"server-{os.getpid()}.log"), "ab")
        self.spawned = monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self.log
        )
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start (said {line!r})")
        return int(line.rsplit(":", 1)[1].split()[0])

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class LoadGenerator:
    """Open-loop sender over ``CONNECTIONS`` pipelined connections."""

    def __init__(self, port: int) -> None:
        from repro.serve.client import AsyncServeClient

        self.clients = [AsyncServeClient("127.0.0.1", port) for _ in range(CONNECTIONS)]

    async def connect(self, timeout: float = 30.0) -> None:
        deadline = monotonic() + timeout
        while True:
            try:
                for client in self.clients:
                    await client.connect()
                if await self.clients[0].ping():
                    return
            except OSError:
                if monotonic() > deadline:
                    raise
                await asyncio.sleep(0.05)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def one_by_one(self, points: List[Dict]) -> List[Dict]:
        """Send each point after the previous answer (hot-set warm-up)."""
        return [
            await self.clients[i % CONNECTIONS].evaluate_full(p) for i, p in enumerate(points)
        ]

    async def open_loop(self, points: List[Dict], rate: float) -> Dict:
        """Send ``points`` at ``rate``/s on schedule; time each from its due time."""
        loop = asyncio.get_running_loop()
        count = len(points)
        latency = [float("inf")] * count
        responses: List[Optional[Dict]] = [None] * count
        late = [0.0] * count
        errors: List[str] = []

        async def one(index: int, due: float) -> None:
            try:
                responses[index] = await self.clients[index % CONNECTIONS].evaluate_full(
                    points[index]
                )
                latency[index] = loop.time() - due
            except Exception as exc:  # noqa: BLE001 - a refused request is a failed one
                errors.append(f"request {index}: {type(exc).__name__}: {exc}")

        start = loop.time() + 0.02
        tasks = []
        for index in range(count):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late[index] = max(0.0, loop.time() - due)
            tasks.append(asyncio.ensure_future(one(index, due)))
        await asyncio.gather(*tasks)
        return {
            "latency": latency, "responses": responses, "late": late, "errors": errors,
            "start": start, "end": loop.time(),
        }


def _summary(sent: Dict, classes: Optional[List[str]] = None) -> Dict[str, float]:
    """Client-side figures of one open-loop window."""
    latency, count = sent["latency"], len(sent["latency"])
    out = {
        "p50_ms": 1e3 * percentile(latency, 0.50),
        "p99_ms": 1e3 * percentile(latency, 0.99),
        "last_p50_ms": 1e3 * percentile(latency[-max(1, count // 10):], 0.50),
        "late_p99_ms": 1e3 * percentile(sent["late"], 0.99),
        "rps": (count - len(sent["errors"])) / (sent["end"] - sent["start"]),
    }
    if classes is not None:
        cold = [lat for lat, kind in zip(latency, classes) if kind == "cold"]
        out["cold_p50_ms"] = 1e3 * percentile(cold, 0.50)
    return out


def _meets_limit(sent: Dict) -> bool:
    summary = _summary(sent)
    return (
        not sent["errors"]
        and summary["p99_ms"] <= P99_LIMIT_MS
        and summary["last_p50_ms"] <= P99_LIMIT_MS  # no growing backlog
    )


class ServeRun:
    """One workload run: servers, windows, stats and verification."""

    def __init__(self, args, outcome: Outcome) -> None:
        self.args, self.outcome = args, outcome
        self.tiny = args.tiny
        self.mix = Mix(args.seed, 12 if self.tiny else HOT_SET)
        #: Every (point, response) pair served, for verification.
        self.served: List[Tuple[Dict, Optional[Dict]]] = []

    # ------------------------------------------------------------------ #
    async def start(self, spans_path: Optional[str] = None):
        """Start a server and warm the hot set: (server, generator, setup_s, warmup_s)."""
        server = Server(spans_path)
        generator = LoadGenerator(server.port)
        try:
            await generator.connect()
            setup_s = monotonic() - server.spawned
            started = monotonic()
            responses = await generator.one_by_one(self.mix.hot)
            warmup_s = monotonic() - started
        except BaseException:
            await generator.close()
            server.stop()
            raise
        self.served.extend(zip(self.mix.hot, responses))
        return server, generator, setup_s, warmup_s

    async def window(
        self, generator: LoadGenerator, seconds: float, rate: float, probe: bool = False
    ) -> Tuple[Dict, List]:
        """One open-loop window; a ladder ``probe`` may be refused without failing."""
        classes_points = self.mix.requests(max(1, int(rate * seconds)))
        points = [p for _, p in classes_points]
        sent = await generator.open_loop(points, rate)
        self.served.extend(zip(points, sent["responses"]))
        if not probe:
            self.outcome.attempted += len(points)
            self.outcome.failures.extend(sent["errors"])
        return sent, [c for c, _ in classes_points]

    async def ladder(self, generator: LoadGenerator, nominal: Dict) -> float:
        """Binary search of LADDER; measured req/s at the highest passing rate."""
        rungs = (50, 100, 150) if self.tiny else LADDER
        step_s = 0.5 if self.tiny else 3.0
        best = _summary(nominal)["rps"] if _meets_limit(nominal) else 0.0
        lo, hi = 0, len(rungs) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            sent, _ = await self.window(generator, step_s, rungs[mid], probe=True)
            if _meets_limit(sent):
                best = max(best, _summary(sent)["rps"])
                lo = mid + 1
            else:
                hi = mid - 1
            await asyncio.sleep(0.5)  # drain before the next rung
        return best

    # ------------------------------------------------------------------ #
    def verify(self) -> List:
        """Byte-compare every served payload with the in-process evaluation."""
        from repro.pipeline.backends import evaluate
        from repro.serve.protocol import encode, parse_point, result_payload

        if self.args.corrupt == "served-payload":
            point, response = self.served[-1]
            bad = dict(response, result=dict(response["result"]))
            bad["result"]["cycles"] += 1
            self.served[-1] = (point, bad)
        expected: Dict[bytes, bytes] = {}
        results = []
        for point, response in self.served:
            if response is None:
                continue  # already counted as a failed request
            key = encode(point)
            if key not in expected:
                problem, request = parse_point(point)
                result = evaluate(problem, backend="analytic", request=request)
                results.append((point, result))
                expected[key] = encode(result_payload(result))
            if encode(response["result"]) != expected[key]:
                self.outcome.fail(f"served payload for {key.decode().strip()} differs")
        return results


def protocol_us(results, points: List[Dict]) -> float:
    """Mean µs of parse_point + point_key + result_payload + encode per request."""
    from repro.serve.protocol import encode, parse_point, point_key, result_payload

    by_point = {encode(p): r for p, r in results}
    # failed requests were never priced, so they have no result to encode
    pairs = [(p, by_point[encode(p)]) for p in points if encode(p) in by_point]
    start = monotonic()
    for point, result in pairs:
        problem, request = parse_point(point)
        point_key(problem, request)
        encode({"ok": True, "result": result_payload(result)})
    return 1e6 * (monotonic() - start) / len(pairs)


def _delta(after: Dict, before: Dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def _engine_hit_rates(after: Dict, before: Dict) -> Dict[str, float]:
    """The server's packed-session and fold-memo hit rates over the window."""
    rates = {}
    for metric, prefix in (("session_hit_rate", "session"), ("fold_hit_rate", "fold")):
        hits = _delta(after, before, "engine", f"{prefix}_hits")
        lookups = hits + _delta(after, before, "engine", f"{prefix}_misses")
        rates[f"analytic.{metric}"] = hits / lookups if lookups else 0.0
    return rates


async def _run(args, outcome: Outcome) -> None:
    run = ServeRun(args, outcome)
    seconds = 1.0 if run.tiny else float(args.seconds)
    rate = 100 if run.tiny else NOMINAL_RPS
    if not args.trace:
        setups, warmups = [], []
        count = 2 if run.tiny else SETUPS
        for index in range(count):
            server, generator, setup_s, warmup_s = await run.start()
            setups.append(setup_s)
            warmups.append(warmup_s)
            if index < count - 1:  # the last server stays up for the window
                await generator.close()
                server.stop()
        try:
            sent, classes = await run.window(generator, seconds, rate)
            rss = server.peak_rss_mb()
        finally:
            await generator.close()
            server.stop()
        run.verify()
        summary = _summary(sent, classes)
        outcome.e2e.update(
            setup_s=median(setups), cold_s=min(warmups), warm_ms=summary["p50_ms"],
            tail_ms=summary["cold_p50_ms"], peak_rss_mb=rss,
        )
        outcome.named.update(
            serve_setup_s=(median(setups) + min(warmups), "s"),
            serve_p50_ms=(summary["p50_ms"], "ms"), serve_p99_ms=(summary["p99_ms"], "ms"),
            serve_first_seen_p50_ms=(summary["cold_p50_ms"], "ms"),
        )
        return

    # traced mode: an untraced pass (reference, ladder) then a traced server
    server, generator, _setup, plain_warmup = await run.start()
    try:
        nominal, _ = await run.window(generator, seconds / 2, rate)
        max_rps = await run.ladder(generator, nominal)
    finally:
        await generator.close()
        server.stop()

    spans_path = work_path("serve", f"spans-{os.getpid()}.json")
    server, generator, _setup, traced_warmup = await run.start(spans_path)
    try:
        before = await generator.clients[0].stats()
        sent, classes = await run.window(generator, seconds, rate)
        after = await generator.clients[0].stats()
    finally:
        await generator.close()
        server.stop()
    results = run.verify()

    from layers import layer_metrics

    with open(spans_path, encoding="utf-8") as fh:
        dump = json.load(fh)
    os.remove(spans_path)
    layers = layer_metrics(dump["spans"], dump["counts"], window=(sent["start"], sent["end"]))
    summary = _summary(sent)
    memo_hits = _delta(after, before, "memo", "hits")
    memo_lookups = memo_hits + _delta(after, before, "memo", "misses")
    flushes = _delta(after, before, "batches", "flushes")
    batched = sum(
        int(size) * (count - before["batches"]["histogram"].get(size, 0))
        for size, count in after["batches"]["histogram"].items()
    )
    total = len(classes)
    window_points = [p for p, _ in run.served[-total:]]
    layers.update({
        "serve.server_p50_ms": after["latency"]["p50_ms"],
        "serve.server_p99_ms": after["latency"]["p99_ms"],
        "serve.outside_p50_ms": summary["p50_ms"] - after["latency"]["p50_ms"],
        "serve.protocol_us": protocol_us(results, window_points),
        "serve.batch_mean": batched / flushes if flushes else 0.0,
        "serve.flushes": flushes,
        "serve.memo_hit_rate": memo_hits / memo_lookups if memo_lookups else 0.0,
        **_engine_hit_rates(after, before),
        "serve.plan_builds": layers["compile.builds"],
        "serve.repeat_share": classes.count("repeat") / total,
        "serve.price_share": classes.count("price") / total,
        "serve.cold_share": classes.count("cold") / total,
        "serve.rejected": _delta(after, before, "requests", "rejected"),
        "serve.timeouts": _delta(after, before, "breaker", "timeouts"),
        "serve.shed": _delta(after, before, "breaker", "shed"),
        "serve.gen_late_ms": summary["late_p99_ms"],
        "serve.max_rps": max_rps,
        "serve.client_p99_ms": _summary(nominal)["p99_ms"],
        "trace.overhead_pct": 100 * (traced_warmup - plain_warmup) / plain_warmup,
    })
    outcome.layers = layers
    outcome.named.update(serve_max_rps=(max_rps, "req/s"))


def run(args, outcome: Outcome) -> None:
    asyncio.run(_run(args, outcome))
