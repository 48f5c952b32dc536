"""xmlgl-serve: open-loop HTTP traffic against ``repro serve``.

The service runs as a child process (``python -m repro serve
--max-workers 2``) over ``bibliography(1000)``.  This process is the one
traffic generator: two threads, one keep-alive connection each, send
requests at their due times through a ladder of offered rates.  Most
requests are reads from prepared templates whose numeric parameters are
drawn at random, so nearly every read has a query text the service has
never seen and compiles; reads pin the loaded version 1.  The rest are
small mutation batches on the document's mutable head (attribute updates,
and insert+delete pairs that keep its size), watched by one live
subscription that the footprint filter re-evaluates for some writes and
skips for others.

Every request is timed from its due time, so a stall shows in the latency
of the requests queued behind it; how late the generator sent is reported
as ``bench.lag_p95_ms``.  A ladder step meets the latency limit only when
its read p95 is within ``LIMIT_MS``, the generator was not late, its
backlog did not grow and nothing failed.
"""

from __future__ import annotations

import http.client
import random
import re
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from harness import (
    BenchFailure, Context, Outcome, SpeedMonitor, child_setup, cpu_seconds,
    median, peak_rss_mb, percentile, program_env, ratio,
)
from xmllayers import LayerTally, execute_and_serialize, traced_execute, xml_layer_metrics

from repro.engine.cache import DocumentIndexCache
from repro.engine.mutate import ops_from_spec
from repro.engine.plan_cache import PlanCache
from repro.server.client import ServiceClient, ServiceError
from repro.server.service import PreparedQuery
from repro.session import QuerySession
from repro.ssd import parse_document, serialize
from repro.workloads import bibliography

ENTRIES = 1000
WORKERS = 2
CONNECTIONS = 2
#: Read p95 limit of a ladder step, from due time.
LIMIT_MS = 100.0
#: How late (p95) the generator may send before a step counts as missed.
LAG_LIMIT_MS = 20.0
#: (offered requests per second, share of the run) for each ladder step.
LADDER = [(20, 0.9), (32, 0.05), (48, 0.05)]
#: The step whose reads give ``latency_p50_ms`` / ``latency_p95_ms`` and
#: whose writes give ``write_p50_ms`` / ``write_p90_ms``.
NOMINAL = 0
#: Share of each step's requests that are writes.
WRITE_SHARE = 0.34
#: (kind, share of writes): ``year`` and ``rating`` attribute updates, and
#: insert+delete pairs that insert a ``book`` or an ``article``.
WRITE_KINDS = [("year", 0.5), ("rating", 0.25), ("book", 0.125), ("article", 0.125)]
#: Samples the nominal step must hold: reads for the p95, writes for the p90.
MIN_NOMINAL_READS = 200
MIN_NOMINAL_WRITES = 100
SERVER_HASH_SEED = 0
SETUP_REPEATS = 3
#: Seconds the service may take from spawn to "listening".
START_TIMEOUT_S = 60.0

#: (name, share of reads, prepared template); parameters use ``${name}``.
TEMPLATES = [
    ("price", 0.4,
     "query { book as B { title as T  price as P } where P > ${lo} }"
     " construct { r { collect T } }"),
    ("year_price", 0.4,
     "query { book as B { title as T  @year as Y  price as P }"
     " where Y = ${y} and P < ${hi} } construct { r { collect B } }"),
    ("articles", 0.2,
     "query { article as A { @year as Y  title as T }"
     " where Y >= ${y0} and Y <= ${y1} } construct { r { collect T } }"),
]

#: The live subscription: books of 1999.  Writes to ``year`` and
#: structural writes that insert or delete a book are relevant to it;
#: ``rating`` updates and article swaps are not.
SUBSCRIPTION = (
    'query { book as B { @year = "1999" as Y } } construct { r { collect B } }'
)

#: One read per template at the end of set-up, outside the ladder.
WARMUP = [
    ("price", {"lo": 140.0}),
    ("year_price", {"y": 1995, "hi": 100.0}),
    ("articles", {"y0": 1990, "y1": 1992}),
]

_LISTENING = re.compile(r"listening on [^:\s]+:(\d+)")


@dataclass
class Request:
    offset: float
    step: int
    kind: str  # "read" or "write"
    template: Optional[str] = None
    params: dict[str, Any] = field(default_factory=dict)
    ops: list[dict[str, Any]] = field(default_factory=list)
    # filled in by the generator
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    body: Any = None
    error: Optional[str] = None


# -- inputs --------------------------------------------------------------------


def _params(rng: random.Random, template: str) -> dict[str, Any]:
    if template == "price":
        return {"lo": round(rng.uniform(130, 150), 2)}
    if template == "year_price":
        return {"y": rng.randint(1985, 2000), "hi": round(rng.uniform(5, 150), 2)}
    first = rng.randint(1985, 2000)
    return {"y0": first, "y1": first + rng.randint(0, 2)}


def _write_ops(rng: random.Random, serial: int, kind: str) -> list[dict[str, Any]]:
    """One small mutation batch of ``kind``; every batch keeps the entry count."""
    target = [rng.randrange(ENTRIES)]
    if kind == "year":
        year = "1999" if rng.random() < 0.5 else str(rng.randint(1985, 2000))
        return [{"op": "update_attribute", "target": target, "name": "year",
                 "value": year}]
    if kind == "rating":
        return [{"op": "update_attribute", "target": target, "name": "rating",
                 "value": str(rng.randint(1, 5))}]
    tag = kind
    price = f"<price>{rng.uniform(5, 150):.2f}</price>" if tag == "book" else ""
    xml = (
        f'<{tag} year="{rng.randint(1985, 2000)}" id="w{serial}">'
        f"<title>Inserted {serial}</title>"
        f"<author><last>Writer</last><first>W{serial}</first></author>"
        f"{price}</{tag}>"
    )
    return [{"op": "insert", "parent": [], "xml": xml},
            {"op": "delete", "target": target}]


def _exact_counts(total: int, shares: list[tuple[str, float]]) -> dict[str, int]:
    """``total`` split by ``shares`` into whole counts (largest remainder)."""
    exact = [total * share for _name, share in shares]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return {name: count for (name, _share), count in zip(shares, counts)}


def _schedule(seed: int, seconds: float) -> list[Request]:
    """The seeded requests of every ladder step.

    Each step holds exact counts of writes, of each template and of each
    write kind, at seeded positions, so the mix costs the same on every
    seed; parameters and write targets are drawn at random.
    """
    rng = random.Random(seed)
    template_shares = [(name, share) for name, share, _text in TEMPLATES]
    requests: list[Request] = []
    start = 0.0
    for step, (rate, share) in enumerate(LADDER):
        duration = share * seconds
        slots = round(rate * duration)
        writes = round(WRITE_SHARE * slots)
        labels = [
            (kind, name)
            for kind, counts in (
                ("read", _exact_counts(slots - writes, template_shares)),
                ("write", _exact_counts(writes, WRITE_KINDS)),
            )
            for name, count in counts.items()
            for _ in range(count)
        ]
        rng.shuffle(labels)
        for slot, (kind, name) in enumerate(labels):
            offset = start + slot / rate
            if kind == "write":
                requests.append(Request(
                    offset, step, "write", ops=_write_ops(rng, len(requests), name)
                ))
            else:
                requests.append(Request(
                    offset, step, "read", template=name, params=_params(rng, name),
                ))
        start += duration
    return requests


def _query_text(template: str, params: dict[str, Any]) -> str:
    text = next(text for name, _share, text in TEMPLATES if name == template)
    names = tuple(dict.fromkeys(re.findall(r"\$\{(\w+)\}", text)))
    return PreparedQuery(digest="", text=text, params=names).substitute(params)


# -- the service process -------------------------------------------------------


class ServerProcess:
    """``repro serve`` as a child process; killed on any failure."""

    def __init__(self, ctx: Context, xml_path: Path, tag: str, cpu: int) -> None:
        self._ctx = ctx
        self._cpu = cpu
        self._xml_path = xml_path
        self._log_path = ctx.out_dir / f"serve-{ctx.seed}-{tag}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        with self._log_path.open("w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--max-workers", str(WORKERS),
                 "--document", f"bib={self._xml_path}"],
                cwd=self._ctx.root, env=self._env(),
                stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=child_setup(self._cpu),
            )
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            found = _LISTENING.search(self._log_path.read_text())
            if found:
                self.port = int(found.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchFailure(
            f"server did not start: {self._log_path.read_text()[-800:]}"
        )

    def _env(self) -> dict[str, str]:
        # One service per run, so one string-hash order: the same on every
        # run (see ``harness.HASH_SEEDS`` for why the order matters).
        env = program_env(self._ctx.root)
        env["PYTHONHASHSEED"] = str(SERVER_HASH_SEED)
        return env

    def stop(self, client: ServiceClient) -> None:
        """Clean stop through ``/shutdown``; the exit code must be 0."""
        client.shutdown()
        client.close()
        code = self.proc.wait(timeout=60)
        if code != 0:
            raise BenchFailure(f"server exited with code {code}")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _set_up(ctx: Context, xml_path: Path, tag: str, cpu: int):
    """Spawn to listening, prepare the templates, subscribe, warm up.

    The first read of each template pays one-time costs (lazy imports,
    first compiles of each query shape) that would otherwise land on the
    first timed reads; they are set-up, so they are timed as set-up.
    """
    started = time.monotonic()
    server = ServerProcess(ctx, xml_path, tag, cpu)
    try:
        server.start()
        client = ServiceClient(port=server.port)
        digests = {
            name: client.prepare(text)["digest"] for name, _share, text in TEMPLATES
        }
        subscription = client.subscribe(SUBSCRIPTION, document="bib")
        warmups = []
        for name, params in WARMUP:
            request = Request(0.0, -1, "read", template=name, params=params)
            request.body = client.query(
                prepared=digests[name], params=params, version=1
            )
            warmups.append(request)
    except BaseException:
        server.kill()
        raise
    window = (started, time.monotonic())
    return window, server, client, digests, subscription, warmups


# -- the generator -------------------------------------------------------------


def _drive(port: int, requests: list[Request], digests: dict[str, str]) -> float:
    """Send every request at its due time on ``CONNECTIONS`` connections."""
    lock = threading.Lock()
    cursor = [0]
    origin = time.monotonic() + 0.05

    def worker() -> None:
        client = ServiceClient(port=port)
        try:
            while True:
                with lock:
                    position = cursor[0]
                    cursor[0] += 1
                if position >= len(requests):
                    return
                request = requests[position]
                request.due = origin + request.offset
                delay = request.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                request.sent = time.monotonic()
                try:
                    if request.kind == "read":
                        request.body = client.query(
                            prepared=digests[request.template],
                            params=request.params, version=1,
                        )
                    else:
                        request.body = client.mutate("bib", request.ops)
                except (ServiceError, OSError, http.client.HTTPException,
                        ValueError) as error:
                    request.error = f"{type(error).__name__}: {error}"
                request.done = time.monotonic()
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise BenchFailure("traffic generator did not finish")
    return origin


def _step_verdicts(requests: list[Request]) -> list[dict[str, Any]]:
    verdicts = []
    for step, (rate, _share) in enumerate(LADDER):
        mine = [r for r in requests if r.step == step]
        reads = [r for r in mine if r.kind == "read"]
        if not reads:  # a run too short to reach this step
            continue
        lags = [r.sent - r.due for r in mine]
        third = max(1, len(mine) // 3)
        grew = median(lags[-third:]) > median(lags[:third]) + 0.005
        read_p95 = 1000 * percentile([r.done - r.due for r in reads], 0.95)
        lag_p95 = 1000 * percentile(lags, 0.95)
        failures = sum(1 for r in mine if r.error is not None)
        verdicts.append({
            "step": step,
            "rate": rate,
            "requests": len(mine),
            "reads": len(reads),
            "read_p95_ms": read_p95,
            "lag_p95_ms": lag_p95,
            "backlog_grew": grew,
            "failures": failures,
            "ok": (failures == 0 and read_p95 <= LIMIT_MS
                   and lag_p95 <= LAG_LIMIT_MS and not grew),
        })
    return verdicts


# -- checks --------------------------------------------------------------------


def _ids_of_result(xml_text: str) -> set[str]:
    return {child.get("id") for child in ElementTree.fromstring(xml_text)}


def _replayed_ids(initial: set[str], deltas: list[dict[str, Any]]) -> set[str]:
    rows = set(initial)
    for delta in sorted(deltas, key=lambda d: d["revision"]):
        for binding in delta["removed"]:
            rows.discard(ElementTree.fromstring(binding["B"]["xml"]).get("id"))
        for binding in delta["added"]:
            rows.add(ElementTree.fromstring(binding["B"]["xml"]).get("id"))
    return rows


def _check_responses(requests: list[Request], problems: list[str]) -> int:
    failed = 0
    for position, request in enumerate(requests):
        if request.error is not None:
            problems.append(f"request {position}: {request.error}")
        elif request.kind == "read" and not request.body.get("ok"):
            problems.append(f"request {position}: read not ok: {request.body}")
        elif request.kind == "write" and request.body.get("applied") != len(request.ops):
            problems.append(f"request {position}: write not applied")
        else:
            continue
        failed += 1
    return failed


# -- in-process replay (traced run) ---------------------------------------------


def _replay_writes(xml_text: str, requests: list[Request], tracer, problems):
    """The write stream through ``QuerySession.mutate`` with a live subscription."""
    document = parse_document(xml_text)
    indexes = DocumentIndexCache()
    session = QuerySession(document, indexes=indexes, plans=PlanCache())
    subscription = session.subscribe(SUBSCRIPTION)
    index = indexes.peek(document)
    before = sum(index.maintenance_counters().values())
    seconds = []
    for position, request in enumerate(requests):
        if request.kind != "write":
            continue
        if tracer is not None:
            tracer.op = position
            with tracer.span("op"):
                batch = ops_from_spec(document, request.ops)
                with tracer.span("mutate"):
                    session.mutate(batch)
        else:
            started = time.perf_counter()
            session.mutate(ops_from_spec(document, request.ops))
            seconds.append(time.perf_counter() - started)
    work = sum(index.maintenance_counters().values()) - before
    rows = {binding["B"].get("id") for binding in subscription.rows()}
    row = session.execute(SUBSCRIPTION)
    if rows != _ids_of_result(serialize(row.result.root)):
        problems.append("in-process subscription rows differ from a direct query")
    return seconds, work, subscription


def run(ctx: Context) -> Outcome:
    generated = bibliography(ENTRIES, seed=ctx.seed)
    xml_text = serialize(generated.root)
    xml_path = ctx.out_dir / f"serve-bib-{ctx.seed}.xml"
    xml_path.write_text(xml_text, encoding="utf-8")
    requests = _schedule(ctx.seed, ctx.seconds)
    problems: list[str] = []

    # The service gets a CPU of its own where there is one; the monitor
    # probes that CPU, so normalized times describe the service's speed.
    server_cpu = ctx.spare_cpu if ctx.spare_cpu is not None else ctx.cpu
    monitor = SpeedMonitor(ctx, server_cpu, spin=True)
    server = None
    try:
        windows = []
        for repeat in range(SETUP_REPEATS):
            window, server, client, digests, subscription, warmups = _set_up(
                ctx, xml_path, str(repeat), server_cpu
            )
            windows.append(window)
            if repeat < SETUP_REPEATS - 1:
                try:
                    server.stop(client)
                finally:
                    server.kill()
        cpu_before = cpu_seconds(server.proc.pid)
        origin = _drive(server.port, requests, digests)
        finished = max(r.done for r in requests)
        server_cpu_s = cpu_seconds(server.proc.pid) - cpu_before
        deltas = client.deltas(subscription["id"])["deltas"]
        head = client.query(SUBSCRIPTION, document="bib")
        service_metrics = client.metrics()
        server_rss = peak_rss_mb(server.proc.pid)
        server.stop(client)
        speed = monitor.stop()
    finally:
        if server is not None:
            server.kill()
        monitor.kill()
    raw_setups = [end - start for start, end in windows]
    setups = [speed.normalized(end - start, start, end) for start, end in windows]
    # The service's CPU time over the ladder, in host-normalized seconds.
    # No steal time is taken off: the probe is timed in CPU time too.
    normalized_cpu_s = server_cpu_s * speed.factor(origin, finished)

    failed = _check_responses(warmups + requests, problems)
    # The subscription's deltas, replayed onto its initial rows, must give
    # what a direct query on the head returns now.
    reference_session = QuerySession(
        generated, indexes=DocumentIndexCache(), plans=PlanCache(4096)
    )
    initial_row = reference_session.execute(SUBSCRIPTION)
    initial = _ids_of_result(serialize(initial_row.result.root))
    if len(initial) != subscription["rows"]:
        failed += 1
        problems.append("subscription started with the wrong row count")
    if not head.get("ok") or _replayed_ids(initial, deltas) != _ids_of_result(
        head["result"]
    ):
        failed += 1
        problems.append("subscription deltas do not replay to the head's rows")

    reads = [r for r in requests if r.kind == "read"]
    writes = [r for r in requests if r.kind == "write"]
    verdicts = _step_verdicts(requests)
    nominal = [r for r in reads if r.step == NOMINAL]
    nominal_writes = [r for r in writes if r.step == NOMINAL]
    if len(nominal) < MIN_NOMINAL_READS or len(nominal_writes) < MIN_NOMINAL_WRITES:
        problems.append(
            f"the nominal step holds {len(nominal)} reads and "
            f"{len(nominal_writes)} writes; it needs {MIN_NOMINAL_READS} "
            f"and {MIN_NOMINAL_WRITES}"
        )
    outcome = Outcome(
        attempted=len(warmups) + len(requests), failed=failed, problems=problems
    )
    outcome.notes = {
        "requests": len(requests),
        "reads": len(reads),
        "writes": len(writes),
        "nominal_reads": len(nominal),
        "nominal_writes": len(nominal_writes),
        "server_cpu_s": server_cpu_s,
        "normalized_server_cpu_s": normalized_cpu_s,
        "ladder_s": finished - origin,
        "steps": verdicts,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "deltas": len(deltas),
    }

    # Served reads must equal the in-process result byte for byte.
    for request in warmups:
        text = _query_text(request.template, request.params)
        output, _, _ = execute_and_serialize(reference_session, text)
        if request.body.get("ok") and request.body.get("result") != output:
            outcome.failed += 1
            problems.append(f"warm-up read {request.template}: result differs")
    for position, request in enumerate(requests):
        # A read that failed or came back not ok is already counted.
        if request.kind != "read" or request.error is not None:
            continue
        text = _query_text(request.template, request.params)
        output, _, _ = execute_and_serialize(reference_session, text)
        if request.body.get("ok") and request.body.get("result") != output:
            outcome.failed += 1
            problems.append(f"request {position}: served result differs")

    raw = [r.done - r.due for r in nominal]
    normalized = [speed.normalized(r.done - r.due, r.due, r.done) for r in nominal]
    outcome.notes["timeline"] = [
        [round(r.offset, 3), r.kind, r.step, round(1000 * (r.done - r.due), 2),
         round(1000 * (r.sent - r.due), 2)]
        for r in requests
    ]
    outcome.notes["steal_s"] = speed.steal(origin, finished)
    outcome.notes["raw_latency_p50_ms"] = 1000 * percentile(raw, 0.50)
    outcome.notes["raw_latency_p95_ms"] = 1000 * percentile(raw, 0.95)
    if not ctx.trace:
        outcome.end_to_end = {
            "setup_s": median(setups),
            "latency_p50_ms": 1000 * percentile(normalized, 0.50),
            "latency_p95_ms": 1000 * percentile(normalized, 0.95),
            # Completed requests per second of the service's own CPU: the
            # offered rate is fixed, so requests per wall second would not
            # depend on the service.
            "ops_per_s": ratio(len(requests), normalized_cpu_s),
            "peak_rss_mb": server_rss,
        }
        return outcome

    # Traced run: the reads again in process, through their layer calls on
    # a fresh plan cache of the service's size (so they compile as served
    # reads do), each also once through ``execute`` (alternately before
    # and after) for the session share and the untraced time.
    tracer = ctx.tracer
    tally = LayerTally()
    plain_seconds = []
    indexes = DocumentIndexCache()
    indexes.get(generated)
    layer_plans, execute_plans = PlanCache(), PlanCache()
    session = QuerySession(generated, indexes=indexes, plans=execute_plans)
    for position, request in enumerate(requests):
        if request.kind != "read":
            continue
        text = _query_text(request.template, request.params)
        tracer.op = position
        if position % 2:
            checked, execute_s, serialize_s = execute_and_serialize(session, text)
        with tracer.span("op"):
            output = traced_execute(tracer, tally, text, generated, indexes, layer_plans)
        if not position % 2:
            checked, execute_s, serialize_s = execute_and_serialize(session, text)
        tally.execute_seconds[position] = execute_s
        plain_seconds.append(execute_s + serialize_s)
        tally.ops += 1
        # A served read that failed is already counted; check it here
        # against the reference only.
        served_ok = request.error is None and request.body.get("ok")
        if checked != output or (served_ok and request.body["result"] != output):
            outcome.failed += 1
            problems.append(f"traced request {position}: result differs")
    write_plain, work, _ = _replay_writes(xml_text, requests, None, problems)
    _, _, subscription_replay = _replay_writes(xml_text, requests, tracer, problems)
    outcome.attempted += len(requests)

    layers = xml_layer_metrics(tracer, tally)
    hops = [
        1000 * (r.done - r.sent - r.body["seconds"]) for r in reads if r.body
    ]
    admission = service_metrics["tenants"]["public"]["admission"]
    passing = [v["rate"] for v in verdicts if v["ok"]]
    write_seconds = [r.done - r.due for r in nominal_writes]
    evals = subscription_replay.evals - 1  # the first evaluation is at subscribe
    skips = subscription_replay.skips
    layers.update({
        "server.hop_p50_ms": percentile(hops, 0.50),
        "server.hop_p95_ms": percentile(hops, 0.95),
        "server.queue_peak": admission["queue_peak"],
        "server.queued_total": admission["queued_total"],
        "server.rejected": admission["rejected"],
        "server.plan_cache_hit_ratio": (
            service_metrics["engine"]["plan_cache_hit_rate"] or 0.0
        ),
        "write_p50_ms": 1000 * percentile(write_seconds, 0.50),
        "write_p90_ms": 1000 * percentile(write_seconds, 0.90),
        "max_ok_rps": float(max(passing)) if passing else 0.0,
        "mutate.commit_ms": 1000 * ratio(
            sum(tracer.durations("mutate")), len(writes)
        ),
        "mutate.maintenance_work": ratio(work, len(writes)),
        "subscribe.evals": evals,
        "subscribe.skips": skips,
        "subscribe.skip_ratio": ratio(skips, evals + skips),
        "bench.lag_p95_ms": 1000 * percentile(
            [r.sent - r.due for r in requests if r.step == NOMINAL], 0.95
        ),
        "bench.trace_overhead_ratio": ratio(
            sum(tracer.durations("op")), sum(plain_seconds) + sum(write_plain)
        ),
    })
    for request in requests:
        tracer.add(f"served.{request.kind}", request.sent, request.done, None)
    outcome.per_layer = layers
    return outcome
