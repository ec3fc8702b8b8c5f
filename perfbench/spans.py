"""Span recorder for traced benchmark runs.

Layers are timed from outside the program: :func:`install` replaces
public functions and methods of ``repro`` modules with wrappers that
record one span per call (name, start, end, parent).  Spans stay in
memory in flat arrays and are written once, as an ``.npz`` file, when
the run ends.  A span's self time is its duration minus the time its
child spans cover.

Nothing here imports ``repro`` at module import time, so the capture
launcher can time ``import repro.cli`` itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

now_ns = time.monotonic_ns

#: (module, attribute path, span name).  A dotted attribute path names a
#: method.  A span name ending in ``#`` or ``*`` marks a generator, timed
#: one ``next()`` per span; its yields are counted, and its items too:
#: ``len(item)`` each for ``#`` (packets in a block), one each for ``*``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.fastpath.columns", "ColumnarPcapReader.iter_blocks", "fastpath.columns#"),
    ("repro.fastpath.classify", "classify_block", "fastpath.classify"),
    ("repro.fastpath.pipeline", "scan_capture", "fastpath.scan"),
    ("repro.fastpath.pipeline", "detect_from_sources", "fastpath.pipeline"),
    ("repro.core.syndog", "SynDog.observe_period", "core.syndog.observe_period"),
    ("repro.core.normalization", "NormalizedDifference.observe", "core.normalization.observe"),
    ("repro.core.cusum", "NonParametricCusum.update", "core.cusum.update"),
    ("repro.obs.tsdb", "TimeSeriesDB.tick", "obs.tsdb.tick"),
    ("repro.obs.tsdb", "TimeSeriesDB.append", "obs.tsdb.append"),
    ("repro.obs.events", "EventLog.emit", "obs.events.emit"),
    ("repro.obs.recorder", "FlightRecorder.record", "obs.recorder.record"),
    ("repro.obs.alerts", "AlertManager.evaluate", "obs.alerts.evaluate"),
    ("repro.router.fleet", "Federation.feed_all", "router.fleet.feed_all"),
    ("repro.router.fleet", "Federation.feed", "router.fleet.feed"),
    ("repro.router.fleet", "Federation.finish", "router.fleet.finish"),
    ("repro.router.fleet", "Federation.rollup", "router.fleet.rollup"),
    ("repro.router.fleet", "Federation.agent_states", "router.fleet.agent_states"),
    ("repro.obs.rollup", "FleetRollup.from_states", "obs.rollup.from_states"),
    ("repro.router.leafrouter", "LeafRouter.replay", "router.leafrouter.replay"),
    ("repro.pcap.reader", "PcapReader.iter_packets", "pcap.reader*"),
    ("repro.packet.classify", "explain_packet", "packet.classify"),
    ("repro.packet.classify", "classify_packet", "packet.classify"),
    ("repro.core.sniffer", "CountExchange.observe_outbound", "core.sniffer.update"),
    ("repro.core.sniffer", "CountExchange.observe_inbound", "core.sniffer.update"),
)

#: Classes whose live instances are sampled for occupancy at run end.
TRACKED = (
    ("repro.core.syndog", "SynDog"),
    ("repro.obs.tsdb", "TimeSeriesDB"),
)


class Recorder:
    """Spans in flat arrays, plus a stack giving each span its parent."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.items: Dict[str, int] = {}
        self.yields: Dict[str, int] = {}
        self.instances: Dict[str, List[Any]] = {}
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        index = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(index)
        self.start.append(now_ns())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = now_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(index)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per span name: calls, total (inclusive) ns and self ns."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(name)
        )
        own = duration - covered
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=duration, minlength=size)
        self_ns = np.bincount(name, weights=own, minlength=size)
        return {
            n: {"calls": int(calls[i]), "total_ns": int(total[i]), "self_ns": int(self_ns[i])}
            for i, n in enumerate(self.names)
        }

    def forget_instances(self) -> None:
        """Stop counting the instances created so far (a new unit of
        work starts from fresh state)."""
        for instances in self.instances.values():
            instances.clear()

    def occupancy(self) -> Dict[str, int]:
        """State retained by every tracked instance created since the
        last :meth:`forget_instances` (kept alive until now)."""
        dogs = self.instances.get("SynDog", ())
        stores = self.instances.get("TimeSeriesDB", ())
        return {
            "records_held": sum(len(dog.records) for dog in dogs),
            "points_retained": sum(db.points_retained() for db in stores),
            "series": sum(len(db) for db in stores),
        }

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """One spans file: the arrays plus a JSON header with the name
        table (``names[name[i]]`` is span *i*'s name)."""
        import numpy as np

        header = dict(meta, names=self.names, items=self.items, yields=self.yields)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                name=np.frombuffer(self.name, dtype=np.int64),
                start_ns=np.frombuffer(self.start, dtype=np.int64),
                end_ns=np.frombuffer(self.end, dtype=np.int64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
            )


def load_spans(path: str) -> Dict[str, Any]:
    """Read a spans file back: ``header`` dict plus the span arrays."""
    import numpy as np

    with np.load(path) as data:
        out = {key: data[key] for key in data.files if key != "header"}
        out["header"] = json.loads(bytes(data["header"]).decode())
    return out


class _TimedIterator:
    """A generator proxy recording one span per ``next()``."""

    def __init__(
        self, inner: Iterator[Any], rec: Recorder, nid: int, key: str, sized: bool
    ) -> None:
        self._inner = inner
        self._rec = rec
        self._nid = nid
        self._key = key
        self._sized = sized

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        rec = self._rec
        index = rec.enter(self._nid)
        try:
            item = next(self._inner)
        finally:
            rec.exit(index)
        key = self._key
        rec.items[key] = rec.items.get(key, 0) + (len(item) if self._sized else 1)
        rec.yields[key] = rec.yields.get(key, 0) + 1
        return item

    def close(self) -> None:
        self._inner.close()


def _wrap(fn: Callable[..., Any], rec: Recorder, name: str) -> Callable[..., Any]:
    if name[-1] in "#*":
        key = name[:-1]
        sized = name[-1] == "#"
        nid = rec.name_id(key)

        @functools.wraps(fn)
        def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
            return _TimedIterator(fn(*args, **kwargs), rec, nid, key, sized)

        return generator_wrapper
    nid = rec.name_id(name)
    # Recorder.enter/exit inlined: these wrappers run per packet.
    names, ends, stack = rec.name, rec.end, rec._stack
    add_name, add_parent = names.append, rec.parent.append
    add_start, add_end = rec.start.append, ends.append
    push, pop = stack.append, stack.pop

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = len(names)
        add_name(nid)
        add_parent(stack[-1] if stack else -1)
        add_end(0)
        push(index)
        add_start(now_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = now_ns()
            pop()

    return wrapper


def _track_instances(cls: type, rec: Recorder) -> None:
    instances: List[Any] = []
    rec.instances[cls.__name__] = instances
    original = cls.__init__

    @functools.wraps(original)
    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        instances.append(self)

    cls.__init__ = init


def install(rec: Recorder) -> None:
    """Import every layer module and wrap its entry points.

    A module-level function is replaced in every loaded ``repro`` module
    that bound it by name, so calls through ``from x import f`` are
    timed too.  Methods are replaced on their class.
    """
    for module_name, attr, name in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(_wrap(raw.__func__, rec, name)))
            else:
                setattr(cls, method, _wrap(raw, rec, name))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(original, rec, name)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and getattr(
                loaded, attr, None
            ) is original:
                setattr(loaded, attr, wrapped)
    for module_name, class_name in TRACKED:
        _track_instances(getattr(importlib.import_module(module_name), class_name), rec)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _per(value: float, count: float, scale: float) -> float:
    return value / count / scale if count else 0.0


def layer_metrics(rec: Recorder, unit: str) -> Dict[str, float]:
    """Every per-layer metric computable from one traced process.

    ``unit`` names the root span of one unit of work (a CLI ``main``, a
    fleet step, a replay pass); shares are taken against its total.  A
    layer the workload never reaches reads 0.
    """
    s = rec.summary()
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def row(name: str) -> Dict[str, int]:
        return s.get(name, zero)

    fast_pkts = rec.items.get("fastpath.columns", 0)
    pcap_pkts = rec.items.get("pcap.reader", 0)
    observe = row("core.syndog.observe_period")
    tick = row("obs.tsdb.tick")
    append = row("obs.tsdb.append")
    evaluate = row("obs.alerts.evaluate")
    obs_self = sum(row(n)["self_ns"] for n in s if n.startswith("obs."))
    unit_ns = row(unit)["total_ns"]
    occupancy = rec.occupancy()
    return {
        "fastpath.columns.ns_per_pkt": _per(row("fastpath.columns")["self_ns"], fast_pkts, 1.0),
        "fastpath.classify.ns_per_pkt": _per(row("fastpath.classify")["self_ns"], fast_pkts, 1.0),
        "fastpath.pipeline.merge_periodize_ns_per_pkt": _per(
            row("fastpath.pipeline")["self_ns"], fast_pkts, 1.0
        ),
        "fastpath.packets": float(fast_pkts),
        "fastpath.blocks": float(rec.yields.get("fastpath.columns", 0)),
        "core.syndog.observe_period_us": _per(observe["total_ns"], observe["calls"], 1e3),
        "core.syndog.self_us": _per(observe["self_ns"], observe["calls"], 1e3),
        "core.cusum.update_us": _per(
            row("core.cusum.update")["total_ns"], row("core.cusum.update")["calls"], 1e3
        ),
        "core.normalization.observe_us": _per(
            row("core.normalization.observe")["total_ns"],
            row("core.normalization.observe")["calls"],
            1e3,
        ),
        "obs.tsdb.tick_us": _per(tick["total_ns"], tick["calls"], 1e3),
        "obs.tsdb.tick_calls": float(tick["calls"]),
        "obs.tsdb.append_us": _per(append["total_ns"], append["calls"], 1e3),
        "obs.tsdb.append_calls": float(append["calls"]),
        "obs.events.emit_us": _per(
            row("obs.events.emit")["total_ns"], row("obs.events.emit")["calls"], 1e3
        ),
        "obs.recorder.record_us": _per(
            row("obs.recorder.record")["total_ns"], row("obs.recorder.record")["calls"], 1e3
        ),
        "obs.alerts.evaluate_us": _per(evaluate["total_ns"], evaluate["calls"], 1e3),
        "obs.alerts.evaluate_calls": float(evaluate["calls"]),
        "obs.telemetry_share": obs_self / unit_ns if unit_ns else 0.0,
        "router.fleet.agent_states_ms": _per(
            row("router.fleet.agent_states")["total_ns"],
            row("router.fleet.agent_states")["calls"],
            1e6,
        ),
        "obs.rollup.from_states_ms": _per(
            row("obs.rollup.from_states")["total_ns"],
            row("obs.rollup.from_states")["calls"],
            1e6,
        ),
        "core.syndog.records_held": float(occupancy["records_held"]),
        "obs.tsdb.points_retained": float(occupancy["points_retained"]),
        "obs.tsdb.series": float(occupancy["series"]),
        "pcap.reader.ns_per_pkt": _per(row("pcap.reader")["self_ns"], pcap_pkts, 1.0),
        "router.leafrouter.replay_ns_per_pkt": _per(
            row("router.leafrouter.replay")["self_ns"], pcap_pkts, 1.0
        ),
        "packet.classify.ns_per_pkt": _per(row("packet.classify")["self_ns"], pcap_pkts, 1.0),
        "packet.classify.calls_per_pkt": _per(row("packet.classify")["calls"], pcap_pkts, 1.0),
        "core.sniffer.update_ns_per_pkt": _per(
            row("core.sniffer.update")["self_ns"], pcap_pkts, 1.0
        ),
    }
