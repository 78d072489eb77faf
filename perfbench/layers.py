"""Per-layer probes installed around the program's public functions.

Nothing in ``src/`` is changed: the benchmark replaces a function or
method with a wrapper from outside, before any simulator object exists,
in the short-lived interpreter that runs one workload. Two kinds of
wrapper:

* a *timed* wrapper records calls, inclusive time, and self time, i.e.
  the span minus the part covered by nested timed spans (a shared stack
  of child-time accumulators gives the partition);
* a *counted* wrapper only counts calls, for hot functions whose cost is
  better left to the caller's self time.

Model statistics (network counters, resolver and cache stats, served vs
offered queries) are harvested from every ``Testbed`` when its run ends.
The report's worker pool forks after the probes are installed, so the
wrappers reach the workers; each worker writes its tables to a file that
the parent merges (see ``child.py``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

# (layer key, module, attribute path) of every timed probe.
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("simcore.run", "repro.simcore.simulator", "Simulator.run"),
    ("netem.send", "repro.netem.transport", "Network.send"),
    ("resolvers.stub", "repro.resolvers.stub", "StubResolver.on_packet"),
    ("resolvers.recursive", "repro.resolvers.recursive", "RecursiveResolver.on_packet"),
    ("resolvers.recursive", "repro.resolvers.recursive", "RecursiveResolver.resolve"),
    ("resolvers.forwarder", "repro.resolvers.forwarder", "ForwardingResolver.on_packet"),
    ("resolvers.pool", "repro.resolvers.pool", "PublicResolverPool.on_packet"),
    ("resolvers.cache", "repro.resolvers.cache", "DnsCache.get"),
    ("resolvers.cache", "repro.resolvers.cache", "DnsCache.put"),
    ("resolvers.cache", "repro.resolvers.cache", "DnsCache.get_stale"),
    ("fsm.dispatch", "repro.fsm.machine", "CompiledMachine.dispatch"),
    ("servers.on_packet", "repro.servers.authoritative", "AuthoritativeServer.on_packet"),
    ("dnscore.aaaa", "repro.dnscore.records", "AAAA.from_fields"),
    ("dnscore.aaaa", "repro.dnscore.records", "AAAA.fields"),
    ("clients.build", "repro.clients.population", "build_population"),
    ("core.testbed", "repro.core.testbed", "Testbed.__init__"),
    ("core.classify", "repro.core.classification", "classify_answers"),
    ("core.classify", "repro.core.classification", "classify_misses_by_resolver"),
    ("runner.run_many", "repro.runner.executor", "run_many"),
    ("runner.cache_put", "repro.runner.cache", "DiskCache.put"),
    ("runner.execute", "repro.runner.executor", "execute_request"),
    ("analysis.build_report", "repro.analysis.report", "build_report"),
    ("workloads.gen", "repro.workloads.nl_trace", "generate_nl_trace"),
    ("workloads.gen", "repro.workloads.ditl", "generate_ditl_counts"),
    ("obs.emit", "repro.obs.trace", "Tracer.emit"),
    ("obs.snapshot", "repro.obs.metrics", "MetricsRegistry.snapshot"),
    ("obs.snapshot", "repro.obs.timeline", "TimelineRecorder.sample"),
    ("obs.sketch", "repro.obs.sketch", "SourceSketch.update"),
    ("obs.export", "repro.obs.spanio", "export_spans"),
    ("obs.export", "repro.obs.spanio", "export_metrics"),
    ("obs.export", "repro.obs.spanio", "export_timeline"),
)

# (layer key, module, attribute path) of every counted probe.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("simcore.events", "repro.simcore.simulator", "Simulator.at"),
    ("simcore.cancels", "repro.simcore.events", "Event.cancel"),
    ("dnscore.with_ttl", "repro.dnscore.records", "ResourceRecord.with_ttl"),
    ("dnscore.with_ttl", "repro.dnscore.records", "RRset.with_ttl"),
    ("dnscore.name_from_text", "repro.dnscore.name", "Name.from_text"),
)

#: The ``repro.core.metrics`` series functions (their helpers
#: ``quantile`` and ``round_index_of`` stay inside the callers' self time).
METRICS_SERIES = (
    "responses_by_round",
    "failure_fraction",
    "latency_by_round",
    "authoritative_load_by_round",
    "amplification_factor",
    "per_probe_amplification",
    "unique_rn_by_round",
)

#: Model statistics summed over every testbed run.
MODEL_KEYS = (
    "net_sent",
    "net_dropped",
    "client_queries",
    "upstream_queries",
    "upstream_timeouts",
    "cache_hits",
    "cache_misses",
    "offered",
    "served",
)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Probes:
    """Installs wrappers and accumulates what they record.

    ``trace=False`` installs only the hooks every run needs (the time of
    the first simulated event, the time ``run_many`` is entered, testbed
    capture); ``trace=True`` adds every per-layer probe. Patches are never
    undone: the interpreter exits after its one workload run.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.timed: Dict[str, List[float]] = {}  # key -> [calls, self, inclusive, max]
        self.counts: Dict[str, List[int]] = {}
        self.model: Dict[str, int] = dict.fromkeys(MODEL_KEYS, 0)
        self.marks: Dict[str, float] = {}
        self.testbeds: List[Any] = []
        self.run_many_answers = 0
        self._stack: List[float] = []
        self._pid = os.getpid()
        self.on_mark: Callable[[str], None] = lambda name: None

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        entry = self.timed.setdefault(key, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                entry[0] += 1
                entry[1] += elapsed - stack.pop()
                entry[2] += elapsed
                if elapsed > entry[3]:
                    entry[3] = elapsed
                if stack:
                    stack[-1] += elapsed

        return timed

    def _counted(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        cell = self.counts.setdefault(key, [0])

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _mark_first(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        marks = self.marks

        @functools.wraps(fn)
        def marked(*args: Any, **kwargs: Any) -> Any:
            if name not in marks:
                marks[name] = time.perf_counter()
                self.on_mark(name)
            return fn(*args, **kwargs)

        return marked

    def patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.path`` with ``make(original)``, aliases included."""
        owner, name = _resolve(module_name, path)
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):  # Name.from_text, AAAA.from_fields
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, name, replacement)
        if inspect.isclass(owner):
            return
        # ``from module import function`` copies: rebind every alias.
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, alias, replacement)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        # Import every package a workload touches, so alias rebinding
        # sees them all before anything runs.
        for name in (
            "repro",
            "repro.__main__",
            "repro.analysis.report",
            "repro.core.experiments",
            "repro.runner.executor",
        ):
            importlib.import_module(name)
        self.patch("repro.simcore.simulator", "Simulator.run",
                   lambda fn: self._mark_first("first_event", fn))
        self.patch("repro.runner.executor", "run_many", self._wrap_run_many)
        self.patch("repro.core.testbed", "Testbed.__init__", self._wrap_testbed_init)
        if not self.trace:
            return
        for key, module_name, path in TIMED:
            self.patch(module_name, path, functools.partial(self._timed, key))
        for key, module_name, path in COUNTED:
            self.patch(module_name, path, functools.partial(self._counted, key))
        self.patch("repro.simcore.simulator", "Simulator.__init__", self._wrap_simulator_init)
        self.patch("repro.runner.cache", "DiskCache.put", self._wrap_cache_put)
        self.patch("repro.core.testbed", "Testbed.run", self._wrap_testbed_run)
        for name in METRICS_SERIES:
            self.patch("repro.core.metrics", name, functools.partial(self._timed, "core.metrics"))

    def _wrap_run_many(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        marked = self._mark_first("run_many", fn)

        @functools.wraps(fn)
        def run_many(*args: Any, **kwargs: Any) -> Any:
            results = marked(*args, **kwargs)
            self.run_many_answers += sum(
                len(getattr(result, "answers", ())) for result in results
            )
            return results

        return run_many

    def _wrap_testbed_init(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def init(testbed: Any, *args: Any, **kwargs: Any) -> None:
            fn(testbed, *args, **kwargs)
            # Only in the workload's own process: a pool worker that kept
            # its testbeds alive would inflate its peak memory.
            if os.getpid() == self._pid:
                self.testbeds.append(testbed)

        return init

    def _wrap_simulator_init(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def init(sim: Any, *args: Any, **kwargs: Any) -> None:
            fn(sim, *args, **kwargs)
            sim.call_later = self._counted("simcore.events", sim.call_later)

        return init

    def _wrap_cache_put(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        written = self.counts.setdefault("runner.result_bytes", [0])

        @functools.wraps(fn)
        def put(cache: Any, key: str, value: Any) -> None:
            fn(cache, key, value)
            written[0] += cache.path_for(key).stat().st_size

        return put

    def _wrap_testbed_run(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def run(testbed: Any, *args: Any, **kwargs: Any) -> None:
            fn(testbed, *args, **kwargs)
            self.harvest(testbed)

        return run

    def harvest(self, testbed: Any) -> None:
        """Add one finished testbed's model statistics."""
        model = self.model
        counters = testbed.network.counters
        model["net_sent"] += counters.sent
        model["net_dropped"] += counters.dropped_attack + counters.dropped_baseline
        population = testbed.population
        resolvers = list(population.recursives)
        for pool in population.pools:
            resolvers.extend(pool.backends)
        for resolver in resolvers:
            stats = resolver.stats()
            model["client_queries"] += stats["client_queries"]
            model["upstream_queries"] += stats["upstream_queries"]
            model["upstream_timeouts"] += stats["upstream_timeouts"]
            model["cache_hits"] += stats["cache"]["hits"]
            model["cache_misses"] += stats["cache"]["misses"]
        model["offered"] += len(testbed.offered_query_log.entries)
        model["served"] += sum(server.responses_sent for server in testbed.test_servers)

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every table in place (wrappers hold references to them)."""
        for entry in self.timed.values():
            entry[:] = [0, 0.0, 0.0, 0.0]
        for cell in self.counts.values():
            cell[0] = 0
        for key in self.model:
            self.model[key] = 0
        self._stack.clear()
        self.testbeds.clear()

    def tables(self) -> Dict[str, Any]:
        return {
            "timed": {key: list(entry) for key, entry in self.timed.items()},
            "counts": {key: cell[0] for key, cell in self.counts.items()},
            "model": dict(self.model),
        }


def merge_tables(tables: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum tables from several processes (maxima stay maxima)."""
    merged: Dict[str, Any] = {"timed": {}, "counts": {}, "model": dict.fromkeys(MODEL_KEYS, 0)}
    for table in tables:
        for key, (calls, self_s, inclusive, longest) in table["timed"].items():
            entry = merged["timed"].setdefault(key, [0, 0.0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += inclusive
            entry[3] = max(entry[3], longest)
        for key, value in table["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        for key, value in table["model"].items():
            merged["model"][key] += value
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tables: Dict[str, Any], jobs: int, export_bytes: int) -> Dict[str, float]:
    """Every per-layer metric, by name, from merged probe tables."""
    timed = tables["timed"]
    counts = tables["counts"]
    model = tables["model"]

    def calls(key: str) -> int:
        return int(timed.get(key, [0])[0])

    def self_s(key: str) -> float:
        return timed.get(key, [0, 0.0])[1]

    def inclusive(key: str) -> float:
        return timed.get(key, [0, 0.0, 0.0])[2]

    events = counts.get("simcore.events", 0)
    run_many_s = inclusive("runner.run_many")
    return {
        "simcore.self_s": self_s("simcore.run"),
        "simcore.events": events,
        "simcore.cancel_ratio": _ratio(counts.get("simcore.cancels", 0), events),
        "netem.send_s": self_s("netem.send"),
        "netem.packets": calls("netem.send"),
        "netem.drop_ratio": _ratio(model["net_dropped"], model["net_sent"]),
        "resolvers.stub_s": self_s("resolvers.stub"),
        "resolvers.recursive_s": self_s("resolvers.recursive"),
        "resolvers.forwarder_s": self_s("resolvers.forwarder"),
        "resolvers.pool_s": self_s("resolvers.pool"),
        "resolvers.cache_s": self_s("resolvers.cache"),
        "resolvers.cache_hit_ratio": _ratio(
            model["cache_hits"], model["cache_hits"] + model["cache_misses"]
        ),
        "resolvers.upstream_per_query": _ratio(model["upstream_queries"], model["client_queries"]),
        "resolvers.timeout_ratio": _ratio(model["upstream_timeouts"], model["upstream_queries"]),
        "fsm.dispatch_s": self_s("fsm.dispatch"),
        "fsm.dispatches": calls("fsm.dispatch"),
        "servers.self_s": self_s("servers.on_packet"),
        "servers.served_ratio": _ratio(model["served"], model["offered"]),
        "dnscore.aaaa_s": self_s("dnscore.aaaa"),
        "dnscore.aaaa_calls": calls("dnscore.aaaa"),
        "dnscore.with_ttl_calls": counts.get("dnscore.with_ttl", 0),
        "dnscore.name_from_text_calls": counts.get("dnscore.name_from_text", 0),
        "clients.build_s": self_s("clients.build"),
        "core.testbed_s": self_s("core.testbed"),
        "core.classify_s": self_s("core.classify"),
        "core.metrics_s": self_s("core.metrics"),
        "runner.run_many_s": run_many_s,
        "runner.cache_put_s": self_s("runner.cache_put"),
        "runner.result_mb": counts.get("runner.result_bytes", 0) / 1e6,
        "runner.longest_run_s": timed.get("runner.execute", [0, 0.0, 0.0, 0.0])[3],
        "runner.parallel_efficiency": _ratio(inclusive("runner.execute"), jobs * run_many_s),
        "analysis.render_s": self_s("analysis.build_report"),
        "workloads.gen_s": self_s("workloads.gen"),
        "obs.spans": calls("obs.emit"),
        "obs.emit_s": self_s("obs.emit"),
        "obs.snapshot_s": self_s("obs.snapshot"),
        "obs.sketch_s": self_s("obs.sketch"),
        "obs.export_s": self_s("obs.export"),
        "obs.export_mb": export_bytes / 1e6,
    }
