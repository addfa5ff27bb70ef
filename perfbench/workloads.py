"""The four benchmark workloads and what each one checks.

Live workloads (``fresh_small``, ``retry_bulk``, ``timeout_push``) drive a
server that runs in its own process (``launcher.py``) through the public
``rmaws.Client``, from one bench thread, in a closed loop: each send
starts only once the previous one has returned.
``enumerate_faults`` runs ``rmaws.faultsim.enumerate_and_check`` in the
bench process itself.

A run does a fixed amount of work: ``seconds`` times the workload's
nominal rate, never "as much as fits". The cache never evicts, so a
duration-bound run would leave a faster program holding more entries.
The work is cut into blocks, and each block of measured sends is
followed by the same inputs on the baseline path, so both phases sample
the whole run rather than one half of it each: host speed drifts over
seconds. Every input comes from ``random.Random(seed)``; the program
receives only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from itertools import combinations

import spans

import rmaws.client
import rmaws.faultsim.enumeration as enumeration
from rmaws.client import Client, ClientError, SendOptions
from rmaws.envelope import Channel, ResponseStatus
from rmaws.faultsim import FaultSpec, ScenarioSpec, enumerate_and_check, normalize_sites

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
TOKEN = "bench-token"
# Long enough that no send times out, so nothing falls back: the /direct
# baseline and every workload but timeout_push use it.
PATIENT_OPTS = SendOptions(http_timeout_ms=10_000, push_wait_ms=10_000, max_trials=1,
                          auth_token=TOKEN)
# The paper's constant request overhead: envelope bytes on top of the
# payload. Fixed here, apart from the program's own constant.
REQUEST_OVERHEAD_BYTES = 226
# Set-ups per untraced run; setup_s is their median. A run with fewer
# blocks than this sets up once per block.
SETUPS = 5


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a check failure)."""


# -- the server process -------------------------------------------------------------

class LiveServer:
    """``launcher.py`` in a child process, spoken to over its stdin/stdout."""

    def __init__(self, services: list[dict], *, trace: bool = False, break_dedup: bool = False):
        config = {"auth_token": TOKEN, "bind": "127.0.0.1:0", "services": services}
        cmd = [sys.executable, os.path.join(HERE, "launcher.py"), "--config-json",
               json.dumps(config)]
        cmd += ["--trace"] if trace else []
        cmd += ["--break-dedup"] if break_dedup else []
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"server exited while answering {command!r}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# -- measurement records ------------------------------------------------------------------

@dataclass
class Block:
    """One block of operations of one kind, timed as a whole."""

    ops: int
    wall_s: float
    body_bytes: int = 0
    cpu_s: float = 0.0  # CPU of the server process (the bench process for the simulator)


@dataclass
class Phase:
    """Operations of one kind over a run, in input order, in blocks.

    Rates are taken per block and reported as the median over blocks, so
    that a slow spell of the host in a few blocks does not move them.
    """

    latencies: list = field(default_factory=list)  # seconds per operation
    results: list = field(default_factory=list)  # a settled Outcome or a ClientError
    blocks: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def wall_s(self) -> float:
        return sum(b.wall_s for b in self.blocks)

    def extend(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.results += other.results
        self.blocks += other.blocks


@dataclass
class Measurement:
    setups_s: list
    main: Phase
    direct: Phase
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    channels: dict = field(default_factory=dict)  # channel of each measured send
    trials: list = field(default_factory=list)  # trials used by each measured send
    docs: list = field(default_factory=list)  # span dumps, traced runs only


def closed_loop(items: list, op) -> Phase:
    """``op(item)`` on each of ``items`` in order, each timed. An item
    whose ``op`` raises ``ClientError`` keeps that error as its result.
    Results are settled once the timing has stopped."""
    results, latencies = [], []
    t0 = time.perf_counter()
    for item in items:
        t1 = time.perf_counter()
        try:
            results.append(op(item))
        except ClientError as exc:
            results.append(exc)
        latencies.append(time.perf_counter() - t1)
    wall = time.perf_counter() - t0
    body_bytes = sum(len(r.body) for r in results if _ok(r))
    return Phase(latencies, [_settled(r) for r in results], [Block(len(items), wall, body_bytes)])


def spread_points(steps: int, count: int) -> list[int]:
    """``count`` step indices spread evenly over ``steps`` steps."""
    return [max(0, (k + 1) * steps // (count + 1) - 1) for k in range(count)]


def _ok(result) -> bool:
    return not isinstance(result, Exception) and result.status is ResponseStatus.OK


def _payload(rng: random.Random) -> bytes:
    return rng.randbytes(rng.choice((25, 55)))


def _fingerprint(body: bytes) -> tuple[int, str]:
    return len(body), hashlib.sha256(body).hexdigest()


def _settled(result):
    """``result`` with its body replaced by the body's length and digest,
    so that a run does not hold every body it has received."""
    return replace(result, body=_fingerprint(result.body)) if _ok(result) else result


def write_spans(tracer: spans.Tracer, name: str, seed: int) -> dict:
    """Write the bench process's spans to ``out/`` and return them."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tracer.dump(os.path.join(OUT_DIR, f"{name}-{seed}.bench.spans.json"))


# -- live workloads ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Item:
    payload: bytes
    ts: int = 0  # fixed identity timestamp, retry_bulk only
    first: bool = True


class RequestSizes:
    """Records the encoded size of each request envelope the client puts
    on the wire, by dedup key, while installed: it wraps whichever
    ``encode_request`` the client module calls at the time."""

    def __enter__(self):
        self.sizes: dict[str, int] = {}
        self._encode = rmaws.client.encode_request

        def encode(env):
            out = self._encode(env)
            self.sizes[env.rid.dedup_key] = len(out)
            return out

        rmaws.client.encode_request = encode
        return self

    def __exit__(self, *exc):
        rmaws.client.encode_request = self._encode


class LiveWorkload:
    """A closed loop of logical sends against one server process.

    Subclasses give the services, the inputs, how one input is sent, and
    the checks. ``rate`` is the nominal number of logical sends per
    second of ``--seconds``; ``block`` is how many go between two
    baseline blocks.
    """

    name = ""
    rate = 0
    block = 0
    tail_pct = 95.0
    tail_window = 300  # sends per window of the tail (metrics.tail)
    tail_by_scenario = False
    services: list[dict] = []
    send_opts = PATIENT_OPTS

    def inputs(self, rng: random.Random, count: int) -> list[Item]:
        raise NotImplementedError

    def warmup_count(self) -> int:
        return self.block

    def client(self, port: int, tag: str):
        return Client("127.0.0.1", port, device_id=f"{tag}{self.name[:8]}",
                      auth_token=TOKEN, defaults=self.send_opts)

    def send(self, client, item: Item):
        return client.send(self.services[0]["name"], item.payload)

    def direct_items(self, items: list[Item]) -> list[Item]:
        return items

    def check(self, items: list[Item], main: Phase, direct: Phase) -> list[str]:
        raise NotImplementedError

    # -- driving ---------------------------------------------------------

    def _loop(self, server: LiveServer, items: list[Item], tag: str,
              after_block=None) -> tuple[Phase, Phase]:
        """Measured sends of ``items`` in blocks, each followed by the
        same inputs on ``/direct``, then by ``after_block(index)``."""
        sender = self.client(server.port, tag)
        direct_client = Client("127.0.0.1", server.port, auth_token=TOKEN, defaults=PATIENT_OPTS)
        service = self.services[0]["name"]
        main, direct = Phase(), Phase()
        for index, start in enumerate(range(0, len(items), self.block)):
            block = items[start:start + self.block]
            cpu0 = server.ask("stats")["cpu_s"]
            sent = closed_loop(block, lambda item: self.send(sender, item))
            sent.blocks[0].cpu_s = server.ask("stats")["cpu_s"] - cpu0
            main.extend(sent)
            direct.extend(closed_loop(self.direct_items(block),
                                      lambda item: direct_client.send_direct(service,
                                                                             item.payload)))
            if after_block is not None:
                after_block(index)
        return main, direct

    def _set_up(self, warmup: list[Item], tag: str, **server_flags) -> tuple[LiveServer, float]:
        """Launch a server and warm it up; return it with the time taken."""
        t0 = time.perf_counter()
        server = LiveServer(self.services, **server_flags)
        try:
            self._loop(server, warmup, tag)
        except BaseException:
            server.close()
            raise
        return server, time.perf_counter() - t0

    def measure(self, seed: int, seconds: int, *, tracer: spans.Tracer | None = None,
                break_dedup: bool = False) -> Measurement:
        """Run the workload; with a ``tracer`` (whose wrappers the caller
        has installed), the server records spans too."""
        items = self.inputs(random.Random(seed), self.rate * seconds)
        # Warm-up inputs come from their own stream, the same on every
        # seed, and their device ids keep them apart from measured sends.
        warmup = self.inputs(random.Random(f"warmup-{self.name}"), self.warmup_count())
        trace = tracer is not None
        server, first = self._set_up(warmup, "w0", trace=trace, break_dedup=break_dedup)
        setups_s = [first]
        # The other set-ups launch a server of their own between blocks,
        # while the measured one idles: spread over the run, they see the
        # same drift of host speed as the measurement does. A traced run
        # sets up once: the other servers are not traced, and their
        # warm-up sends would count in the client layer only.
        blocks = -(-len(items) // self.block)
        at = spread_points(blocks, 0 if trace else min(SETUPS, blocks) - 1)

        def set_up_again(index: int) -> None:
            for _ in range(at.count(index)):
                extra, took = self._set_up(warmup, f"w{len(setups_s)}",
                                           break_dedup=break_dedup)
                extra.close()
                setups_s.append(took)

        with server:
            main, direct = self._loop(server, items, "m", set_up_again)
            m = Measurement(setups_s, main, direct,
                            rss_mb=server.ask("stats")["maxrss_kb"] / 1024.0)
            if tracer is not None:
                path = os.path.join(OUT_DIR, f"{self.name}-{seed}.server.spans.json")
                m.docs = [write_spans(tracer, self.name, seed)]
                server.ask(f"dump {path}")
                with open(path, "r", encoding="utf-8") as fh:
                    m.docs.append(json.load(fh))
        for r in main.results + direct.results:
            m.attempted += 1
            m.failed += not _ok(r)
        for r in main.results:
            if not isinstance(r, Exception):
                m.channels[r.channel.value] = m.channels.get(r.channel.value, 0) + 1
                m.trials.append(r.trials_used)
        m.problems += self.check(items, main, direct)
        return m


class FreshSmall(LiveWorkload):
    """Every send gets a new identity; 25/55 B payloads to an echo service."""

    name = "fresh_small"
    rate = 600
    block = 300
    services = [{"name": "echo", "delay_ms": 0, "output_size": None}]

    def inputs(self, rng, count):
        return [Item(_payload(rng)) for _ in range(count)]

    def measure(self, seed, seconds, **kwargs):
        with RequestSizes() as self.wire:
            return super().measure(seed, seconds, **kwargs)

    def check(self, items, main, direct):
        problems = []
        for item, r, d in zip(items, main.results, direct.results):
            if not _ok(r) or not _ok(d):
                continue  # counted as failed
            if r.body != _fingerprint(item.payload):
                problems.append("echo body differs from the payload sent")
            if d.body != _fingerprint(item.payload):
                problems.append("/direct echo body differs from the payload sent")
            if r.channel is not Channel.HTTP or r.trials_used != 1:
                problems.append(f"send came back via {r.channel.value} "
                                f"after {r.trials_used} trial(s), not via Http after 1")
            wire = self.wire.sizes.get(r.rid.dedup_key)
            if wire is None or wire - len(item.payload) != REQUEST_OVERHEAD_BYTES:
                problems.append(f"request of {wire} B sent for a {len(item.payload)} B "
                                f"payload, not {REQUEST_OVERHEAD_BYTES} B more")
        return problems


class RetryBulk(LiveWorkload):
    """Each identity executes once and is re-sent under the same identity.

    Each identity carries a random 16384 B payload to ``echo``, so its
    response is 16384 B too. Identities come in rounds of ``round_size``;
    the seed sets how their first sends and re-sends interleave within a
    round, the first send always ahead of its re-sends. A ``Client`` with
    a fixed clock re-sends one identity, as the README documents.
    ``/direct`` runs once per identity.
    """

    name = "retry_bulk"
    rate = 400
    resends = 3
    round_size = 8
    block = 4 * round_size * (1 + resends)
    tail_pct = 90.0
    tail_window = 256
    size = 16384
    services = [{"name": "echo", "delay_ms": 0, "output_size": None}]

    def inputs(self, rng, count):
        per_identity = 1 + self.resends
        rounds = max(1, count // (per_identity * self.round_size))
        base = 1_700_000_000_000
        order = []
        for ident0 in range(0, rounds * self.round_size, self.round_size):
            pending = {}
            for ident in range(ident0, ident0 + self.round_size):
                payload = rng.randbytes(self.size)
                pending[ident] = [Item(payload, base + ident, first=(k == 0))
                                  for k in range(per_identity)]
            while pending:
                ident = rng.choice(sorted(pending))
                order.append(pending[ident].pop(0))
                if not pending[ident]:
                    del pending[ident]
        return order

    def warmup_count(self) -> int:
        return 4 * self.block

    def client(self, port, tag):
        stamp = {"ts": 0}
        client = Client("127.0.0.1", port, device_id=f"{tag}bulk", auth_token=TOKEN,
                        clock=lambda: stamp["ts"], defaults=self.send_opts)
        return client, stamp

    def send(self, client, item):
        client, stamp = client
        stamp["ts"] = item.ts
        return client.send(self.services[0]["name"], item.payload)

    def direct_items(self, items):
        return [item for item in items if item.first]

    def check(self, items, main, direct):
        problems = []
        first_body: dict[int, tuple] = {}
        for item, r in zip(items, main.results):
            if not _ok(r):
                continue
            if r.body[0] != self.size:
                problems.append(f"body of {r.body[0]} B, expected {self.size}")
            if item.first:
                first_body[item.ts] = r.body
                if r.channel is not Channel.HTTP:
                    problems.append(f"first send came back via {r.channel.value}, not Http")
                if r.body != _fingerprint(item.payload):
                    problems.append("first body differs from the payload sent")
            else:
                if r.channel is not Channel.CACHE_REPLAY:
                    problems.append(f"re-send came back via {r.channel.value}, not CacheReplay")
                if first_body.get(item.ts) != r.body:
                    problems.append("re-send body differs from the identity's first body")
        if len(set(first_body.values())) != len(first_body):
            problems.append("distinct identities got the same body")
        for item, d in zip(self.direct_items(items), direct.results):
            if _ok(d) and first_body.get(item.ts) != d.body:
                problems.append("first body differs from /direct for the same payload")
        return problems


class TimeoutPush(LiveWorkload):
    """The handler delay sits above the HTTP timeout: every send falls
    back to the push channel and gets its response as a Deliver frame."""

    name = "timeout_push"
    rate = 10
    block = 10
    tail_pct = 90.0
    tail_window = 150
    http_timeout_ms = 20
    # The 30 ms margin keeps every send on the push channel even when the
    # host stalls the bench process for a while: after a 10 ms stall
    # between sending and waiting, the HTTP response lands before the
    # time-out and the send comes back via Http.
    delay_ms = 50
    size = 2048
    services = [{"name": "slow", "delay_ms": delay_ms, "output_size": size}]
    send_opts = SendOptions(http_timeout_ms=http_timeout_ms, push_wait_ms=10_000,
                            max_trials=1, auth_token=TOKEN)

    def inputs(self, rng, count):
        return [Item(_payload(rng)) for _ in range(count)]

    def warmup_count(self) -> int:
        return self.block // 2

    def check(self, items, main, direct):
        problems = []
        for r, d in zip(main.results, direct.results):
            if not _ok(r) or not _ok(d):
                continue
            if r.channel is not Channel.PUSH or r.trials_used != 1:
                problems.append(f"send came back via {r.channel.value} "
                                f"after {r.trials_used} trial(s), not via Push after 1")
            if r.body[0] != self.size or r.body != d.body:
                problems.append("pushed body differs from /direct's")
        return problems


# -- the simulator workload ----------------------------------------------------------------------

def scenario_count(sites: list[list[FaultSpec]]) -> int:
    """Scenarios an enumeration of ``sites`` must run, counted here apart
    from the program: every subset of sites, times every ordering of the
    timed faults that share an instant (drops are not timed)."""
    total = 0
    for size in range(len(sites) + 1):
        for subset in combinations(sites, size):
            per_instant: dict[int, int] = {}
            for site in subset:
                for fault in site:
                    if not fault.kind.startswith("drop_"):
                        per_instant[fault.t] = per_instant.get(fault.t, 0) + 1
            total += math.prod(math.factorial(n) for n in per_instant.values())
    return total


def load_template(rng: random.Random) -> tuple[ScenarioSpec, list]:
    """The bundled template, with each send's payload drawn from ``rng``."""
    with open(os.path.join(HERE, "faults_template.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw_sites = raw.pop("fault_sites")
    for send in raw["sends"]:
        send["payload_hex"] = rng.randbytes(send.pop("payload_size")).hex()
    sites = [[FaultSpec(**f) for f in (s if isinstance(s, list) else [s])] for s in raw_sites]
    return ScenarioSpec.from_dict(raw), normalize_sites(sites)


class ScenarioTimer:
    """Times each scenario the enumeration runs, from outside it.

    While installed, the ``run`` and ``check_invariants`` the enumeration
    calls per scenario are wrapped: ``run`` starts a scenario's clock and
    the check of its trace stops it. Each trace's send outcomes are
    tallied on the way.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.body_bytes = 0
        self.channels: dict[str, int] = {}
        self.trials: list[int] = []
        self._t0 = 0.0

    def __enter__(self):
        self._run, self._check = enumeration.run, enumeration.check_invariants

        def run(*args, **kwargs):
            self._t0 = time.perf_counter()
            trace = self._run(*args, **kwargs)
            self.body_bytes += sum(len(b) for b in trace.raw_bodies.values())
            for row in trace.outcomes:
                channel = row.get("channel", row.get("error", "incomplete"))
                self.channels[channel] = self.channels.get(channel, 0) + 1
                self.trials.append(row.get("trials", 0))
            return trace

        def check(trace):
            violations = self._check(trace)
            self.latencies.append(time.perf_counter() - self._t0)
            return violations

        enumeration.run, enumeration.check_invariants = run, check
        return self

    def __exit__(self, *exc):
        enumeration.run, enumeration.check_invariants = self._run, self._check


class EnumerateFaults:
    """Exhaustive fault enumeration over ``faults_template.json``; the
    enumeration checks every scenario with ``check_invariants``.

    ``direct_rps`` is the baseline without fault handling: the template
    with no fault at all, run and checked, per second.
    """

    name = "enumerate_faults"
    rate = 1  # enumerations per second of --seconds
    baseline_runs = 500  # fault-free runs after each enumeration
    tail_pct = 98.0
    tail_by_scenario = True

    def measure(self, seed: int, seconds: int, *, tracer: spans.Tracer | None = None,
                break_dedup: bool = False) -> Measurement:
        template_seed = random.Random(seed).random()

        def set_up() -> tuple[ScenarioSpec, list]:
            t0 = time.perf_counter()
            template, sites = load_template(random.Random(template_seed))
            enumerate_and_check(template, sites, break_dedup=break_dedup)
            m.setups_s.append(time.perf_counter() - t0)
            return template, sites

        m = Measurement([], Phase(), Phase())
        template, sites = set_up()
        expected = scenario_count(sites)
        baseline = replace(template, faults=[])
        # As for live workloads, the other set-ups are spread over the run.
        runs = self.rate * seconds
        at = spread_points(runs, 0 if tracer is not None else min(SETUPS, runs) - 1)
        reports = []
        for index in range(runs):
            with ScenarioTimer() as timer:
                cpu0, t0 = time.process_time(), time.perf_counter()
                reports.append(enumerate_and_check(template, sites, break_dedup=break_dedup))
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            m.main.latencies += timer.latencies
            m.main.blocks.append(Block(len(timer.latencies), wall, timer.body_bytes, cpu))
            for channel, n in timer.channels.items():
                m.channels[channel] = m.channels.get(channel, 0) + n
            m.trials += timer.trials

            t0 = time.perf_counter()
            for _ in range(self.baseline_runs):
                t1 = time.perf_counter()
                if enumeration.check_invariants(enumeration.run(baseline,
                                                                break_dedup=break_dedup)):
                    m.problems.append("the fault-free template run violates an invariant")
                m.direct.latencies.append(time.perf_counter() - t1)
            m.direct.blocks.append(Block(self.baseline_runs, time.perf_counter() - t0))
            for _ in range(at.count(index)):
                set_up()
        m.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        m.attempted = sum(r.total_scenarios for r in reports) + m.direct.ops
        for report in reports:
            if report.total_scenarios != expected:
                m.problems.append(f"{report.total_scenarios} scenarios run, "
                                  f"{expected} expected from the template's sites")
            for finding in report.findings:
                kinds = sorted({v.kind for v in finding.violations})
                m.problems.append(f"scenario {'+'.join(finding.sites)} violates {kinds}")
        if tracer is not None:
            m.docs = [write_spans(tracer, self.name, seed)]
        return m


WORKLOADS = {w.name: w for w in (FreshSmall(), RetryBulk(), TimeoutPush(), EnumerateFaults())}
