"""In-memory span tracer for the traced benchmark run.

The traced run wraps public functions of each layer (listed in
:data:`TARGETS`) with timing shims installed from this file; nothing
under ``src/`` changes. Every wrapped call becomes a span with a name,
a layer, a start, an end, its parent span and the request id (the spec
or job name) that was current when it opened. A layer's self time is
the sum over its spans of duration minus the time covered by direct
child spans, so nested layers are never counted twice.

Serving-tier calls additionally leave per-request *marks* (admitted,
encoded, sent, decoded, resolved); the per-request waits in the report
are differences between marks of the same request.

Only the main thread is traced: the gateway's reader threads never call
a wrapped function, and worker processes are out of scope (their time
shows up from the parent as ``serve.reply_wait_ms``).
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.obs.trace import PID_WALL, TraceEvent, Tracer
from repro.serve import payload_nbytes

#: Spans kept for the Chrome trace; beyond this only aggregates grow.
SPAN_CAP = 100_000

#: Payload-size classes of the wire metrics (total payload bytes).
SMALL_MAX = 4096  # the shm wire's inline threshold
MID_MAX = 256 * 1024

#: CAPESystem vector intrinsics timed as the ``engine.intrinsic`` layer.
INTRINSICS = (
    "vsetvl", "vle", "vse", "vlse", "vsse", "vlrw", "vadd", "vsub",
    "vmul", "vand", "vor", "vxor", "vadd_vx", "vrsub_vx", "vsll_vi",
    "vsrl_vi", "vsra_vi", "vmin", "vmax", "vminu", "vmaxu", "vmsne",
    "vmv_vx", "vmv", "vmseq_vx", "vmseq", "vmslt", "vmsltu", "vmerge",
    "vredsum", "vmask_popcount", "vfirst", "fence",
)

#: (module, class, methods, layer) — the public functions timed per layer.
TARGETS = (
    ("repro.runtime.pool", "DevicePool", ("run",), "runtime.pool"),
    ("repro.serve.pool", "ServePool", ("run",), "servepool.run"),
    ("repro.runtime.job", "Job", ("execute",), "runtime.job"),
    ("repro.gang.replay", "GangReplay", ("replay",), "gang.replay"),
    ("repro.plan.superplan", "Superplan", ("replay",), "plan.superplan_replay"),
    ("repro.engine.bitexec", "BitEngine", ("execute",), "csb.bitexec"),
    ("repro.engine.system", "CAPESystem", INTRINSICS, "engine.intrinsic"),
    ("repro.engine.vcu", "VCU", ("dispatch",), "vcu.dispatch"),
    ("repro.engine.cp", "ControlProcessor", ("scalar_block", "scalar_ops"), "cp.scalar"),
    ("repro.memory.hierarchy", "CacheHierarchy", ("access", "access_many"), "memory.access"),
    ("repro.isa.interpreter", "Machine", ("run",), "isa.run"),
    ("repro.serve.gateway", "Gateway", ("submit_nowait",), "serve.admit"),
    ("repro.serve.shm", "HostWire", ("encode_spec",), "serve.encode"),
    ("repro.serve.shm", "HostWire", ("decode_reply",), "serve.decode"),
    ("repro.serve.worker", "WorkerHandle", ("send_runs", "send_gang"), "serve.send"),
)


def size_class(nbytes: int) -> str:
    if nbytes < SMALL_MAX:
        return "small"
    return "mid" if nbytes < MID_MAX else "large"


class SpanTracer:
    """Per-layer self time, call counts and per-request marks; finished
    spans go to a :class:`repro.obs.trace.Tracer` for the Chrome trace."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        self.enabled = False
        self.t0 = time.perf_counter()
        self.rid: Optional[str] = None
        self._main = threading.get_ident()
        self._stack: List[list] = []  # open frames: [layer, child_s, span id]
        self._next_id = 0
        self.trace = Tracer()
        self.dropped = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.top_calls: Dict[str, int] = defaultdict(int)
        #: request name -> {mark: perf_counter time}
        self.marks: Dict[str, Dict[str, float]] = defaultdict(dict)
        #: request name -> payload size class
        self.klass: Dict[str, str] = {}
        #: per size class -> [encode seconds], [decode seconds]
        self.encode_s: Dict[str, List[float]] = defaultdict(list)
        self.decode_s: Dict[str, List[float]] = defaultdict(list)
        #: ServePool wire events in order: (kind, t, names)
        self.pool_events: List[tuple] = []
        self.pool_runs: List[float] = []  # ServePool.run entry times
        self.machine_instructions = 0
        self._in_pool_run = False
        # Forked workers inherit the wrappers; keep them inert there.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def call(self, layer: str, name: str, fn, args, kwargs, hook=None):
        if not self.enabled or threading.get_ident() != self._main:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        self.calls[name] += 1
        if parent is None or parent[0] != layer:
            self.top_calls[layer] += 1
        frame = [layer, 0.0, self._next_id]
        self._next_id += 1
        stack.append(frame)
        rid = self.rid
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[layer] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            if len(self.trace.events) < self.cap:
                self.trace.events.append(TraceEvent(
                    name=name, cat=layer, ph="X", ts=(start - self.t0) * 1e6,
                    pid=PID_WALL, tid="main", dur=dur * 1e6,
                    args={"id": frame[2], "parent": parent[2] if parent else None, "request": rid},
                ))
            else:
                self.dropped += 1
        if hook is not None:
            hook(self, args, result, start, end)
        return result

    def mark(self, request: str, key: str, t: float) -> None:
        if self.enabled:
            self.marks[request][key] = t


# ----------------------------------------------------------------------
# Hooks: what a wrapped call records beyond its span
# ----------------------------------------------------------------------


def _hook_machine(tracer, args, result, start, end):
    tracer.machine_instructions += int(getattr(result, "instructions", 0))


def _hook_admit(tracer, args, result, start, end):
    tracer.mark(args[1].name, "admitted", start)


def _hook_encode(tracer, args, result, start, end):
    spec = args[1]
    klass = size_class(payload_nbytes(spec.payload))
    tracer.klass[spec.name] = klass
    tracer.encode_s[klass].append(end - start)
    tracer.mark(spec.name, "encoded", end)


def _hook_decode(tracer, args, result, start, end):
    reply = args[2]
    name = reply.get("name") if isinstance(reply, dict) else None
    if name is None:
        return
    tracer.decode_s[tracer.klass.get(name, "small")].append(end - start)
    tracer.mark(name, "decoded", end)
    if tracer._in_pool_run:
        tracer.pool_events.append(("decode", end, (name,)))


def _hook_send(tracer, args, result, start, end):
    names = tuple(member[1].name for member in args[2])
    for name in names:
        tracer.mark(name, "sent", end)
    if tracer._in_pool_run:
        tracer.pool_events.append(("send", end, names))


HOOKS = {
    ("Machine", "run"): _hook_machine,
    ("Gateway", "submit_nowait"): _hook_admit,
    ("HostWire", "encode_spec"): _hook_encode,
    ("HostWire", "decode_reply"): _hook_decode,
    ("WorkerHandle", "send_runs"): _hook_send,
    ("WorkerHandle", "send_gang"): _hook_send,
}


def _wrap(tracer, cls_name, attr, layer, original):
    name = f"{cls_name}.{attr}"
    hook = HOOKS.get((cls_name, attr))

    if (cls_name, attr) == ("Job", "execute"):
        def wrapper(*args, **kwargs):
            outer = tracer.rid
            tracer.rid = getattr(args[0], "name", None)
            try:
                return tracer.call(layer, name, original, args, kwargs)
            finally:
                tracer.rid = outer
    elif (cls_name, attr) == ("ServePool", "run"):
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.pool_runs.append(time.perf_counter())
                tracer._in_pool_run = True
            try:
                return tracer.call(layer, name, original, args, kwargs)
            finally:
                tracer._in_pool_run = False
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, original, args, kwargs, hook)

    wrapper.__wrapped__ = original
    wrapper.__name__ = attr
    return wrapper


def install(tracer: SpanTracer) -> list:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo = []
    for module_name, cls_name, attrs, layer in TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        for attr in attrs:
            original = cls.__dict__.get(attr)
            if original is None:
                raise RuntimeError(f"{cls_name}.{attr} is gone; update TARGETS")
            setattr(cls, attr, _wrap(tracer, cls_name, attr, layer, original))
            undo.append((cls, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for cls, attr, original in reversed(undo):
        setattr(cls, attr, original)


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _waits(tracer, first: str, second: str) -> List[float]:
    return [
        m[second] - m[first]
        for m in tracer.marks.values()
        if first in m and second in m
    ]


def _pool_rounds(tracer):
    """ServePool launch rounds rebuilt from the ordered send/decode log.

    A round opens with a send while nothing is outstanding and closes
    when its last reply is decoded. Returns ``(round_s, straggler_s)``
    lists; a frame's wait runs from its send to its last decoded reply.
    """
    rounds, outstanding, current = [], set(), None
    for kind, t, names in tracer.pool_events:
        if kind == "send":
            if not outstanding:
                current = {"start": t, "end": t, "frames": []}
                rounds.append(current)
            current["frames"].append([t, set(names), t])
            outstanding.update(names)
        elif current is not None:
            name = names[0]
            outstanding.discard(name)
            for frame in current["frames"]:
                if name in frame[1]:
                    frame[2] = t
            current["end"] = t
    round_s, straggler_s = [], []
    for r in rounds:
        waits = [done - sent for sent, _names, done in r["frames"]]
        round_s.append(r["end"] - r["start"])
        straggler_s.append(max(waits) - _mean(waits))
    return round_s, straggler_s


def _boot_s(tracer) -> List[float]:
    """Per ServePool.run: entry to its first frame sent (worker fork)."""
    sends = [t for kind, t, _names in tracer.pool_events if kind == "send"]
    boots = []
    for entry in tracer.pool_runs:
        later = [t for t in sends if t > entry]
        if later:
            boots.append(later[0] - entry)
    return boots


def layer_metrics(tracer: SpanTracer, units: int) -> Dict[str, float]:
    """Span-derived metrics: device-stack figures per timed unit, serving
    figures per request or per call."""
    s, calls = tracer.self_s, tracer.calls
    per = 1.0 / max(units, 1)
    sends = calls["WorkerHandle.send_runs"] + calls["WorkerHandle.send_gang"]
    admits = calls["Gateway.submit_nowait"]
    round_s, straggler_s = _pool_rounds(tracer)
    out = {
        "plan.superplan_replay_s": s["plan.superplan_replay"] * per,
        "gang.replay_s": s["gang.replay"] * per,
        "csb.bitexec_s": s["csb.bitexec"] * per,
        "engine.intrinsic_self_s": s["engine.intrinsic"] * per,
        "engine.instructions": tracer.top_calls["engine.intrinsic"] * per,
        "vcu.dispatch_s": s["vcu.dispatch"] * per,
        "cp.scalar_s": s["cp.scalar"] * per,
        "memory.access_s": s["memory.access"] * per,
        "memory.accesses": calls["CacheHierarchy.access"] * per,
        "isa.run_s": s["isa.run"] * per,
        "isa.instructions": tracer.machine_instructions * per,
        "runtime.pool_self_s": s["runtime.pool"] * per,
        "runtime.job_s": s["runtime.job"] * per,
        "serve.admit_us": s["serve.admit"] / admits * 1e6 if admits else 0.0,
        "serve.queue_wait_ms": _mean(_waits(tracer, "admitted", "encoded")) * 1e3,
        "serve.resolve_us": _mean(_waits(tracer, "decoded", "resolved")) * 1e6,
        "serve.send_us": s["serve.send"] / sends * 1e6 if sends else 0.0,
        "serve.reply_wait_ms": _mean(_waits(tracer, "sent", "decoded")) * 1e3,
        "servepool.round_s": _mean(round_s),
        "servepool.straggler_ms": _mean(straggler_s) * 1e3,
        "servepool.boot_s": _mean(_boot_s(tracer)),
        "trace.covered_s": sum(s.values()) * per,
    }
    for klass in ("small", "mid", "large"):
        out[f"serve.encode_us.{klass}"] = _mean(tracer.encode_s[klass]) * 1e6
        out[f"serve.decode_us.{klass}"] = _mean(tracer.decode_s[klass]) * 1e6
    return out
