"""The benchmark's four workloads: seeded inputs, goldens, set-up, timing.

Every timed input is derived from the workload seed with numpy's
``default_rng``; warm-ups draw theirs from the fixed :data:`WARMUP_SEED`.
The program under test receives only the generated specs, payloads and
Phoenix inputs. Goldens are computed here with numpy, independently of
the library's own checks, and every output of every timed operation is
compared against them.

Each workload returns a :class:`Phase` per timed phase. A *unit* is
what one timed sample covers: one closed batch through each tier of the
device stack (``device_batch``), one pass over the Phoenix apps
(``phoenix_model``), or the whole open-loop window (``serve_lookup``).
Simulated cycles are summed per unit and must repeat exactly from unit
to unit.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from repro.api import (
    CAPE32K,
    CAPE131K,
    AdmissionError,
    CAPEConfig,
    CAPESystem,
    DevicePool,
    ExecConfig,
    Gateway,
    JobSpec,
    Observer,
    PlanCache,
    ServeConfig,
    ServePool,
    TenantQuota,
    register_kernel,
    submit,
)
from repro.serve import KERNELS
from repro.workloads.phoenix import PHOENIX_APPS

#: Bit-level pool devices: 16 chains x 32 lanes = 512 lanes each.
DEVICE16 = CAPEConfig(name="bench16", num_chains=16)
#: Serving devices: 64 chains = 2,048 lanes each.
DEVICE64 = CAPEConfig(name="bench64", num_chains=64)

BATCH_KERNELS = ("dot", "saxpy_sum", "vadd_sum", "match_count", "program")
GROUP = 4  # same-shape jobs per launch group: one per pool device
#: Every warm-up draws its inputs from this fixed seed, whatever the run's
#: seed, so its simulated cycles are a per-run check on the model.
WARMUP_SEED = 0x5EED_0FF5
SCALAR_VALUES = 8  # distinct saxpy multipliers / match needles

# sum(x*y + x) into a0 through the vector unit and one word of memory.
PROGRAM = """
    li a0, {n}
    li a1, 0x1000
    li a2, 0x3000
    li a3, 0x5000
    vsetvli t0, a0, e32
    vle32.v v1, (a1)
    vle32.v v2, (a2)
    vmul.vv v3, v1, v2
    vadd.vv v4, v3, v1
    vmv.v.x v5, zero
    vredsum.vs v6, v4, v5
    li t1, 1
    vsetvli t0, t1, e32
    vse32.v v6, (a3)
    lw a0, 0(a3)
    ecall
"""


@dataclass
class Phase:
    """What one timed phase measured."""

    units: int = 0
    rates: List[float] = field(default_factory=list)  # ops/s per unit
    latencies: List[float] = field(default_factory=list)  # s per op
    attempted: int = 0
    failed: int = 0
    shed: int = 0
    wrong: List[str] = field(default_factory=list)
    unit_cycles: List[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # last unit's outputs
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def sim_cycles(self) -> float:
        return self.unit_cycles[0] if self.unit_cycles else 0.0

    def check_cycles(self) -> None:
        if len(set(self.unit_cycles)) > 1:
            self.wrong.append(
                f"simulated cycles changed between units: {self.unit_cycles}"
            )


def _fail(phase: Phase, message: str) -> None:
    phase.failed += 1
    if len(phase.wrong) < 20:
        phase.wrong.append(message)


def timed_loop(seconds: float, unit: Callable[[Phase], None]) -> Phase:
    """Run ``unit`` until ``seconds`` have elapsed (at least once)."""
    phase = Phase()
    start = time.perf_counter()
    while phase.units == 0 or time.perf_counter() - start < seconds:
        unit(phase)
        phase.units += 1
    phase.wall_s = time.perf_counter() - start
    phase.check_cycles()
    return phase


# ----------------------------------------------------------------------
# Closed batches: device_batch
# ----------------------------------------------------------------------


def batch_specs(seed: int, lengths=(128, 256, 512)):
    """One closed batch: GROUP same-shape jobs per (kernel, length).

    The seed draws the data arrays; the batch's structure, including the
    saxpy multipliers and match needles (which key the compiled plans),
    is fixed, so every seed does the same work and the warm-up batch
    compiles every plan the timed batches replay. Half the groups
    (alternating over kernel x length) arrive together and share their
    scalar, so launch rounds gang them. The other half arrive round-robin
    across groups with a scalar per job, so their rounds mix shapes and
    run one device at a time through whole-kernel superplans. Returns
    ``(specs, goldens)`` in submission order.
    """
    rng = np.random.default_rng(seed)
    kept, mixed = [], []
    for k, kernel in enumerate(BATCH_KERNELS):
        for l, n in enumerate(lengths):
            ganged = (k + l) % 2 == 0
            g = k * len(lengths) + l
            group = [
                batch_job(rng, kernel, n, (g if ganged else g + j) % SCALAR_VALUES)
                for j in range(GROUP)
            ]
            (kept if ganged else mixed).append(group)
    interleaved = [group[j] for j in range(GROUP) for group in mixed]
    specs, goldens = [], []
    for kernel, n, payload, gold in [job for g in kept for job in g] + interleaved:
        specs.append(JobSpec(f"{kernel}-{n}-{len(specs)}", kernel, payload, lanes=n))
        goldens.append(gold)
    return specs, goldens


def batch_job(rng, kernel: str, n: int, scalar: int):
    """One job's payload and numpy golden; ``scalar`` is in [0, SCALAR_VALUES)."""
    x = rng.integers(0, 1 << 10, n)
    y = rng.integers(0, 1 << 10, n)
    if kernel == "dot":
        payload, gold = {"x": x, "y": y}, int((x * y).sum())
    elif kernel == "saxpy_sum":
        a = scalar + 1
        payload, gold = {"x": x, "y": y, "a": a}, int((a * x + y).sum())
    elif kernel == "vadd_sum":
        payload, gold = {"data": x}, int((2 * x).sum())
    elif kernel == "match_count":
        data = rng.integers(0, SCALAR_VALUES, n)
        payload = {"data": data, "needle": scalar}
        gold = int((data == scalar).sum())
    else:
        payload = {
            "source": PROGRAM.format(n=n),
            "memory_words": {0x1000: x, 0x3000: y},
            "result_regs": [10],
        }
        gold = (int((x * y + x).sum()) & 0xFFFFFFFF,)
    return kernel, n, payload, gold


def check_results(phase: Phase, specs, goldens, results) -> None:
    for spec, gold, result in zip(specs, goldens, results):
        if result.error is not None:
            _fail(phase, f"{spec.name}: {result.error}")
        elif result.output != gold:
            _fail(phase, f"{spec.name}: got {result.output!r}, want {gold!r}")


class BatchWorkload:
    """A closed batch through ``api.submit`` on a reusable pool: one tier
    of :class:`DeviceBatch`."""

    lengths = (128, 256, 512)
    warm_stride = 1  # warm up on every warm_stride-th spec of the warm batch

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        if scale == "tiny":
            self.lengths = (128, 256)
        self.specs, self.goldens = batch_specs(seed, self.lengths)
        self.warm_specs, self.warm_goldens = batch_specs(WARMUP_SEED, self.lengths)
        self.pool = None
        self.observer = None
        self.warm_cycles = 0.0

    def params(self) -> dict:
        return {
            "batch_jobs": len(self.specs), "kernels": list(BATCH_KERNELS),
            "lengths": list(self.lengths), "devices": f"4 x {DEVICE16.name}",
            "backend": "bitplane", "gang": "auto", "superplan": "auto",
        }

    def make_pool(self):
        raise NotImplementedError

    def setup(self) -> None:
        """Build the pool and run the warm-up batch (plans compile here)."""
        self.pool = self.make_pool()
        specs = self.warm_specs[:: self.warm_stride]
        goldens = self.warm_goldens[:: self.warm_stride]
        results = submit(specs, pool=self.pool)
        warm = Phase()
        check_results(warm, specs, goldens, results)
        if warm.failed:
            raise RuntimeError(f"warm-up batch failed: {warm.wrong[:3]}")
        self.warm_cycles = float(sum(r.service_cycles for r in results))

    def unit_key(self, phase: Phase) -> str:
        # The batch's structure is fixed, so its cycles are the same for every seed.
        return "*"

    def unit(self, phase: Phase) -> None:
        start = time.perf_counter()
        results = submit(self.specs, pool=self.pool)
        wall = time.perf_counter() - start
        phase.latencies.append(wall)
        phase.rates.append(len(self.specs) / wall)
        phase.attempted += len(self.specs)
        check_results(phase, self.specs, self.goldens, results)
        phase.unit_cycles.append(float(sum(r.service_cycles for r in results)))
        phase.outputs = [r.output for r in results]
        self.after_unit(phase)

    def after_unit(self, phase: Phase) -> None:
        pass

    def measure(self, seconds: float) -> Phase:
        return timed_loop(seconds, self.unit)

    def corrupt_golden(self) -> None:
        gold = self.goldens[0]
        self.goldens[0] = (gold[0] + 1,) if isinstance(gold, tuple) else gold + 1

    def close(self) -> None:
        self.pool = None


class BitplaneBatch(BatchWorkload):
    """The in-process tier: a bit-level ``DevicePool``."""

    def make_pool(self):
        # A private plan cache per set-up: every set-up compiles cold.
        self.cache = PlanCache()
        return DevicePool(
            (DEVICE16,) * 4,
            backend="bitplane",
            exec=ExecConfig(plan_cache=self.cache, gang="auto", superplan="auto"),
        )

    def setup_counters(self) -> dict:
        snap = self.cache.snapshot()
        return {
            "plan.setup_compile_s": snap["compile_ns"] / 1e9,
        }

    def start_tracing(self) -> None:
        """Attach a live observer for the traced phase's counters."""
        self.observer = Observer()
        self.pool.observer = self.observer
        for device in self.pool.devices:
            device.system.attach_observer(self.observer.labelled(device=device.name))
        self.cache_before = self.cache.snapshot()

    def counters(self, units: int) -> dict:
        m = self.observer.metrics
        snap = self.cache.snapshot()
        hits = snap["hits"] - self.cache_before["hits"]
        misses = snap["misses"] - self.cache_before["misses"]
        kin = m.total("plan.superplan.kernels_in")
        return {
            "plan.compiles": (snap["compiles"] - self.cache_before["compiles"]) / units,
            "plan.compile_s": (snap["compile_ns"] - self.cache_before["compile_ns"]) / 1e9 / units,
            "plan.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "plan.superplan_fusion_ratio": (
                m.total("plan.superplan.kernels_out") / kin if kin else 0.0
            ),
            "csb.microops": m.total("csb.microops") / units,
            **pool_counters(m, units),
        }


class ServePoolBatch(BatchWorkload):
    """The process tier: ``ServePool(workers=2)`` over the same devices."""

    # Workers and their plan caches live for one run only, so a warm-up
    # warms just the parent; a quarter of the batch does that.
    warm_stride = 4

    def params(self) -> dict:
        return dict(super().params(), workers=2, tier="ServePool")

    def make_pool(self):
        return ServePool(
            (DEVICE16,) * 4,
            backend="bitplane",
            exec=ExecConfig(workers=2, gang="auto", superplan="auto"),
        )

    def setup_counters(self) -> dict:
        totals = self.pool.plan_cache_totals()["total"]
        return {"plan.setup_compile_s": totals["compile_ns"] / 1e9}

    def start_tracing(self) -> None:
        self.observer = Observer()
        self.pool.observer = self.observer
        self.plan_totals = {"hits": 0, "misses": 0, "compiles": 0, "compile_ns": 0, "superplans": 0}
        self.wire_totals = {"frames": 0, "batched_jobs": 0, "bytes_out": 0,
                            "bytes_in": 0, "shm_hits": 0, "fallbacks": 0}

    def after_unit(self, phase: Phase) -> None:
        # Workers are forked per run, so each batch's snapshots are fresh.
        if self.observer is None:
            return
        totals = self.pool.plan_cache_totals()["total"]
        for key in self.plan_totals:
            self.plan_totals[key] += totals.get(key, 0)
        for key in self.wire_totals:
            self.wire_totals[key] += self.pool.wire_stats.get(key, 0)

    def counters(self, units: int) -> dict:
        m = self.observer.metrics
        plan, wire = self.plan_totals, self.wire_totals
        lookups = plan["hits"] + plan["misses"]
        return {
            "plan.compiles": plan["compiles"] / units,
            "plan.compile_s": plan["compile_ns"] / 1e9 / units,
            "plan.cache_hit_ratio": plan["hits"] / lookups if lookups else 0.0,
            "plan.superplans": plan["superplans"] / units,
            **pool_counters(m, units),
            **wire_counters(wire, units),
        }


class DeviceBatch:
    """The closed batch through both tiers of the device stack, in turn.

    A unit submits the batch to the in-process bit-level ``DevicePool``
    and then the same specs to ``ServePool(workers=2)`` over the same
    devices, and counts both batches' jobs over both submissions' time.
    Alone, the in-process tier rode the host's speed swings: on a shared
    2-vCPU Xeon VM one busy process ran 55-105 jobs/s from one stretch
    of seconds to the next, while the two-worker tier held 30-37 jobs/s.
    Timing both tiers in every unit keeps the run-to-run spread of the
    benchmark's figures well within its bound. Each tier's own rate is
    kept per unit in ``Phase.extra["tier_rates"]``.
    """

    name = "device_batch"
    workers = 2
    tier_names = ("DevicePool", "ServePool")

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.tiers = (BitplaneBatch(seed, scale), ServePoolBatch(seed, scale))
        self.warm_cycles = 0.0

    def params(self) -> dict:
        return dict(self.tiers[0].params(), tiers=["DevicePool", "ServePool(workers=2)"])

    def setup(self) -> None:
        for tier in self.tiers:
            tier.setup()
        self.warm_cycles = sum(tier.warm_cycles for tier in self.tiers)

    def setup_counters(self) -> dict:
        return self.tiers[0].setup_counters()

    def unit_key(self, phase: Phase) -> str:
        return self.tiers[0].unit_key(phase)

    def unit(self, phase: Phase) -> None:
        parts = [Phase() for _ in self.tiers]
        for tier, part in zip(self.tiers, parts):
            tier.unit(part)
        wall = sum(part.latencies[0] for part in parts)
        jobs = sum(part.attempted for part in parts)
        phase.latencies.append(wall)
        phase.rates.append(jobs / wall)
        phase.attempted += jobs
        phase.failed += sum(part.failed for part in parts)
        phase.wrong += [msg for part in parts for msg in part.wrong]
        rates = phase.extra.setdefault("tier_rates", {name: [] for name in self.tier_names})
        for name, part in zip(self.tier_names, parts):
            rates[name].append(part.rates[0])
        cycles = [part.unit_cycles[0] for part in parts]
        if cycles[0] != cycles[1]:
            phase.wrong.append(f"the tiers simulated different cycles: {cycles}")
        phase.unit_cycles.append(cycles[0])
        phase.outputs = parts[0].outputs

    def measure(self, seconds: float) -> Phase:
        return timed_loop(seconds, self.unit)

    def corrupt_golden(self) -> None:
        self.tiers[0].corrupt_golden()

    def start_tracing(self) -> None:
        for tier in self.tiers:
            tier.start_tracing()

    def counters(self, units: int) -> dict:
        """Plan, gang and csb figures of the in-process tier; the workers'
        cold plan compiles and the wire figures of the process tier."""
        pool = self.tiers[1].counters(units)
        return {
            **self.tiers[0].counters(units),
            "servepool.plan.compile_s": pool["plan.compile_s"],
            "servepool.plan.superplans": pool["plan.superplans"],
            **{k: v for k, v in pool.items() if k.startswith("serve.")},
        }

    def close(self) -> None:
        for tier in self.tiers:
            tier.close()


def pool_counters(m, units: int) -> dict:
    """Gang and steal figures from a pool observer's registry.

    ``gang.size`` is recorded per gang by the in-process pool and per
    ganged job by ``ServePool``; the mean follows what was recorded.
    """
    hit, miss = m.total("gang.hit"), m.total("gang.miss")
    sizes = [h for _labels, h in m.series("gang.size")]
    observed = sum(h.count for h in sizes)
    return {
        "gang.hit_ratio": hit / (hit + miss) if hit + miss else 0.0,
        "gang.size_mean": sum(h.total for h in sizes) / observed if observed else 0.0,
        "runtime.steals": m.total("runtime.steals") / units,
    }


def wire_counters(wire: dict, units: int) -> dict:
    attempts = wire["shm_hits"] + wire["fallbacks"]
    return {
        "serve.wire.bytes": (wire["bytes_out"] + wire["bytes_in"]) / units,
        "serve.shm_hit_ratio": wire["shm_hits"] / attempts if attempts else 0.0,
        "serve.batch.size_mean": (
            wire["batched_jobs"] / wire["frames"] if wire["frames"] else 0.0
        ),
        "serve.frames": wire["frames"] / units,
    }


# ----------------------------------------------------------------------
# Open loop: serve_lookup
# ----------------------------------------------------------------------


@register_kernel("match_count_attached")
def _match_count_attached(system, payload):
    """``match_count`` plus a checksum of the request's attachment.

    The attachment rides the wire like any payload array (inline below
    the shm threshold, shared memory above it); the checksum proves it
    arrived intact.
    """
    count = KERNELS["match_count"](system, payload)
    attachment = payload.get("attachment")
    return (count, 0 if attachment is None else int(attachment.sum()))


class ServeLookup:
    """A seeded Poisson stream of lookups into a Gateway, open loop."""

    name = "serve_lookup"
    workers = 2
    rate = 300.0  # requests/s, well under the ~1,750 req/s closed-burst capacity
    warmup_requests = 64
    mid_share, large_share = 0.25, 0.05
    bound = 0.25  # the generator may fall behind its schedule by this share
    corrupt = False

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        if scale == "tiny":
            self.rate, self.warmup_requests = 100.0, 8
        rng = np.random.default_rng(seed)
        # A few shared attachments keep the working set small.
        self.attachments = {
            "mid": [rng.integers(0, 1 << 20, int(rng.integers(1024, 8193)))
                    for _ in range(32)],
            "large": [rng.integers(0, 1 << 20, 131072) for _ in range(4)],
        }
        self.sums = {
            klass: [int(a.sum()) for a in arrays]
            for klass, arrays in self.attachments.items()
        }
        self.gateway = None
        self.tracer = None
        self.warm_cycles = 0.0

    def params(self) -> dict:
        return {
            "rate_per_s": self.rate, "lanes": [32, 256],
            "attachments": {"none": 1 - self.mid_share - self.large_share,
                            "8-64KiB": self.mid_share, "1MiB": self.large_share},
            "devices": f"2 x {DEVICE64.name}", "workers": self.workers, "backend": None,
        }

    def requests(self, rng, count: int, prefix: str):
        specs, goldens = [], []
        for i in range(count):
            n = int(rng.integers(32, 257))
            data = rng.integers(0, 8, n)
            needle = int(rng.integers(0, 8))
            payload = {"data": data, "needle": needle}
            draw = rng.random()
            klass = None
            if draw < self.large_share:
                klass = "large"
            elif draw < self.large_share + self.mid_share:
                klass = "mid"
            checksum = 0
            if klass is not None:
                k = int(rng.integers(len(self.attachments[klass])))
                payload["attachment"] = self.attachments[klass][k]
                checksum = self.sums[klass][k]
            specs.append(JobSpec(f"{prefix}{i}", "match_count_attached", payload, lanes=n))
            goldens.append((int((data == needle).sum()), checksum))
        return specs, goldens

    def schedule(self, seconds: float):
        """Due offsets: a Poisson process conditioned on its count."""
        count = max(1, int(round(self.rate * seconds)))
        rng = np.random.default_rng([self.seed, int(seconds * 1000)])
        due = np.sort(rng.uniform(0.0, seconds, count))
        specs, goldens = self.requests(rng, count, "r")
        return due, specs, goldens

    async def setup(self) -> None:
        config = ServeConfig(
            configs=(DEVICE64, DEVICE64), workers=2, max_queue=4096,
            default_quota=TenantQuota(max_pending=4096),
        )
        self.gateway = Gateway(config)
        await self.gateway.start()
        self.warm_cycles = 0.0
        specs, goldens = self.requests(
            np.random.default_rng(WARMUP_SEED), self.warmup_requests, "w"
        )
        for spec, gold in zip(specs, goldens):
            result = await self.gateway.submit(spec)
            if not result.ok or result.output != gold:
                raise RuntimeError(f"warm-up lookup {spec.name} failed: {result}")
            self.warm_cycles += result.service_cycles

    def unit_key(self, phase: Phase) -> str:
        # The window's cycles depend on the seed and on the request count.
        return f"{self.seed}/{phase.attempted}"

    async def close(self) -> None:
        if self.gateway is not None:
            await self.gateway.close()
            self.gateway = None

    async def measure(self, seconds: float) -> Phase:
        due, specs, goldens = self.schedule(seconds)
        if self.corrupt:
            goldens[0] = (goldens[0][0] + 1, goldens[0][1])
        gw, tracer = self.gateway, self.tracer
        phase = Phase(units=1, attempted=len(specs))
        latency = [None] * len(specs)
        late = []
        outputs = [None] * len(specs)
        wire_before = dict(gw.wire_stats)

        def resolved(future, i, due_at):
            now = time.perf_counter()
            if tracer is not None:
                tracer.mark(specs[i].name, "resolved", now)
            error = "cancelled" if future.cancelled() else future.exception()
            if error is not None:
                _fail(phase, f"{specs[i].name}: {error!r}")
                return
            result = future.result()
            outputs[i] = result.output
            if not result.ok:
                _fail(phase, f"{specs[i].name}: {result.error}")
            elif result.output != goldens[i]:
                _fail(phase, f"{specs[i].name}: got {result.output!r}, want {goldens[i]!r}")
            else:
                latency[i] = now - due_at
            phase.unit_cycles.append(result.service_cycles)

        futures = []
        t0 = time.perf_counter() + 0.01
        last_send = t0
        for i, spec in enumerate(specs):
            due_at = t0 + float(due[i])
            wait = due_at - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            last_send = time.perf_counter()
            late.append(last_send - due_at)
            try:
                future = gw.submit_nowait(spec)
            except AdmissionError as exc:  # shed: no retry, counts as failed
                phase.shed += 1
                _fail(phase, f"{spec.name}: shed ({exc.reason})")
                continue
            future.add_done_callback(lambda f, i=i, d=due_at: resolved(f, i, d))
            futures.append(future)
        backlog = gw.pending
        await asyncio.gather(*futures, return_exceptions=True)
        finish = time.perf_counter()
        # Per-request cycles summed into one unit (order-independent).
        phase.unit_cycles = [float(sum(phase.unit_cycles))]
        phase.latencies = [v for v in latency if v is not None]
        phase.outputs = outputs
        phase.wall_s = finish - t0
        ok = len(phase.latencies)
        phase.rates = [ok / phase.wall_s]
        offered = len(specs) / max(last_send - t0, 1e-9)
        phase.extra = {
            "late_p50_ms": statistics.median(late) * 1e3,
            "late_p99_ms": float(np.percentile(late, 99)) * 1e3,
            "backlog_end": float(backlog),
            "offered_per_s": offered,
        }
        if offered < (1 - self.bound) * self.rate:
            phase.wrong.append(
                f"invalid run: the generator fell behind its schedule "
                f"(offered {offered:.0f}/s of {self.rate:.0f}/s)"
            )
        wire = {k: v - wire_before.get(k, 0) for k, v in gw.wire_stats.items() if k != "mode"}
        phase.extra["wire"] = wire
        return phase

    def corrupt_golden(self) -> None:
        self.corrupt = True


# ----------------------------------------------------------------------
# The paper's timing model: phoenix_model
# ----------------------------------------------------------------------

#: Sizes per app: each app run takes about the same time (roughly a
#: sixteenth of a pass), so the median app latency sits in a dense
#: cluster of runs rather than in a gap between two apps. With app times
#: spread 68-182 ms, which app the median fell on moved with the host's
#: speed phases and added about 6 % of run-to-run noise to ``p50_ms``;
#: these sizes keep every app within about 75-100 ms on a 2-vCPU Xeon VM.
PHOENIX_SIZES = {
    "full": {
        "matmul": dict(m=64, n=512, p=42), "pca": dict(rows=25, cols=8192),
        "lreg": dict(n=2_000_000), "hist": dict(n=147_456),
        "kmeans": dict(points=25_000, iterations=1), "wrdcnt": dict(n=1 << 16),
        "revidx": dict(n=90_000), "strmatch": dict(n=205_000),
    },
    "tiny": {
        "matmul": dict(m=8, n=128, p=8), "pca": dict(rows=4, cols=1024),
        "lreg": dict(n=1 << 12), "hist": dict(n=1 << 12),
        "kmeans": dict(points=2_000, iterations=1), "wrdcnt": dict(n=1 << 12),
        "revidx": dict(n=1 << 12), "strmatch": dict(n=1 << 12),
    },
}
DESIGN_POINTS = (CAPE32K, CAPE131K)


def _kmeans_golden(data, centroids, k, iterations):
    centroids = centroids.astype(np.int64).copy()
    assign = np.zeros(len(data), dtype=np.int64)
    for _ in range(iterations):
        dist = np.abs(data[:, None, :] - centroids[None, :, :]).sum(axis=2)
        assign = dist.argmin(axis=1)  # ties go to the lower index
        for c in range(k):
            members = data[assign == c]
            if len(members):
                centroids[c] = members.sum(axis=0) // len(members)
    return assign


def phoenix_goldens(app) -> list:
    """The arrays each app's ``check`` must see, computed from its inputs."""
    name = app.name
    if name == "matmul":
        return [(app.A @ app.B) & 0xFFFFFFFF]
    if name == "pca":
        means = app.M.sum(axis=1) // app.cols
        centered = app.M - means[:, None]
        return [means, (centered @ centered.T) & 0xFFFFFFFF]
    if name == "lreg":
        x, y = app.x, app.y
        return [np.array([x.sum(), y.sum(), (x * x).sum(), (y * y).sum(), (x * y).sum()])]
    if name == "hist":
        return [np.bincount(app.pixels, minlength=256)[:256]]
    if name == "kmeans":
        return [_kmeans_golden(app.data, app.initial_centroids, app.k, app.iterations)]
    # word count / reverse index / string match: occurrences per key
    return [np.bincount(app.tokens, minlength=app.num_keys + 1)[1: app.num_keys + 1]]


def matches(sink: list, goldens: list) -> bool:
    return len(sink) == len(goldens) and all(
        np.array_equal(a, g) for a, g in zip(sink, goldens)
    )


def capture_checks(app, sink: list) -> None:
    """Record every array the app hands to its own ``check``."""
    original = app.check

    def check(actual, expected):
        sink.append(np.array(actual, copy=True))
        original(actual, expected)

    app.check = check


class PhoenixModel:
    """The 8 Phoenix apps through ``Workload.run_cape`` on two design points."""

    name = "phoenix_model"
    workers = 0

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.apps = []
        self.warm_cycles = 0.0

    def params(self) -> dict:
        return {
            "apps": list(PHOENIX_APPS), "sizes": PHOENIX_SIZES[self.scale],
            "design_points": [c.name for c in DESIGN_POINTS], "backend": None,
        }

    def build(self, seed: int, sizes: dict) -> list:
        rng = np.random.default_rng(seed)
        apps = []
        for name, cls in PHOENIX_APPS.items():
            app = cls(seed=int(rng.integers(1 << 31)), **sizes[name])
            sink: list = []
            capture_checks(app, sink)
            apps.append((app, sink, phoenix_goldens(app)))
        return apps

    def setup(self) -> None:
        """Generate inputs and goldens, then one warm-up pass at tiny size."""
        self.apps = self.build(self.seed, PHOENIX_SIZES[self.scale])
        self.warm_cycles = 0.0
        for app, sink, goldens in self.build(WARMUP_SEED, PHOENIX_SIZES["tiny"]):
            self.warm_cycles += app.run_cape(CAPESystem(CAPE32K)).cycles
            if not matches(sink, goldens):
                raise RuntimeError(f"warm-up run of {app.name} failed")

    def unit_key(self, phase: Phase) -> str:
        # Some apps' cycles depend on their data, so on the seed.
        return str(self.seed)

    def unit(self, phase: Phase) -> None:
        start = time.perf_counter()
        cycles = 0.0
        outputs = []
        for app, sink, goldens in self.apps:
            for config in DESIGN_POINTS:
                sink.clear()
                t = time.perf_counter()
                try:
                    result = app.run_cape(CAPESystem(config))
                except Exception as exc:  # noqa: BLE001 - a failed op, counted
                    _fail(phase, f"{app.name}/{config.name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    phase.attempted += 1
                phase.latencies.append(time.perf_counter() - t)
                cycles += result.cycles
                outputs.append([a.tolist() for a in sink])
                if not matches(sink, goldens):
                    _fail(phase, f"{app.name}/{config.name}: output differs from golden")
        wall = time.perf_counter() - start
        phase.rates.append(len(self.apps) * len(DESIGN_POINTS) / wall)
        phase.unit_cycles.append(cycles)
        phase.outputs = outputs

    def measure(self, seconds: float) -> Phase:
        return timed_loop(seconds, self.unit)

    def corrupt_golden(self) -> None:
        app, sink, goldens = self.apps[0]
        goldens[0] = goldens[0].copy()
        goldens[0].flat[0] += 1

    def close(self) -> None:
        self.apps = []


WORKLOADS = {
    cls.name: cls
    for cls in (DeviceBatch, ServeLookup, PhoenixModel)
}
