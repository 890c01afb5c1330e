"""Outside-in per-layer attribution for the end-to-end benchmark.

The benchmark never edits the program it measures. A traced round
instead replaces each layer's public callables with timing wrappers:
class methods are replaced on the class, and module functions are
replaced on every loaded ``repro.*`` module that bound them (so both
``parse_url(...)`` inside its own module and ``from .parse import
parse_url`` callers are caught). Everything is restored afterwards.

Each wrapper keeps, per ``(layer, parent layer)``, the call count,
the busy time (inclusive wall) and the self time (busy time minus the
part spent inside other wrapped layers). Aggregates live in memory and
are written out once, when the benchmark ends.

Stdlib only: ``run.py`` imports it before the program, and the
pipeline's set-up times the program's import on its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: Layer name -> the callables it owns, as ``module:Class.method`` or
#: ``module:function``. The names are the per-layer metric prefixes.
LAYERS: dict[str, tuple[str, ...]] = {
    # world generation (the pipeline's replay)
    "dataset.plan": ("repro.dataset.planner:plan_universe",),
    "dataset.build": ("repro.dataset.builder:WebBuilder.build",),
    "archive.capture": ("repro.archive.crawler:ArchiveCrawler.capture",),
    "archive.store_add": ("repro.archive.store:SnapshotStore.add",),
    "archive.availability": ("repro.archive.availability:AvailabilityApi.lookup",),
    "textsim.sketch": ("repro.archive.crawler:BodySketcher.sketch",),
    # ``net.fetch_robots`` is split off ``net.fetch`` by URL (see below).
    "net.fetch": ("repro.net.fetch:Fetcher.fetch",),
    "web.handle": ("repro.web.world:LiveWeb.handle",),
    "web.respond": ("repro.web.site:Site.respond",),
    "wiki.link_refs": ("repro.wiki.wikitext:extract_link_refs",),
    "wiki.edit": (
        "repro.wiki.encyclopedia:Encyclopedia.create_article",
        "repro.wiki.encyclopedia:Encyclopedia.edit_article",
    ),
    "urls.parse": ("repro.urls.parse:parse_url",),
    "iabot.sweep": ("repro.iabot.bot:InternetArchiveBot.run_sweep",),
    "iabot.check": ("repro.iabot.checker:LinkChecker.check",),
    "iabot.find_copy": ("repro.iabot.archive_client:IABotArchiveClient.find_copy",),
    # the study
    "dataset.collect": (
        "repro.dataset.collector:Collector.collect",
        "repro.dataset.collector:Collector.mine_article",
    ),
    "exec.execute": ("repro.exec.executor:StudyExecutor.execute",),
    "archive.cdx_query": ("repro.archive.cdx:CdxApi.query",),
    "service.index_build": ("repro.service.index:LinkStatusIndex.build",),
    # serving
    "service.loop": (
        "repro.service.server:LinkStatusService.serve",
        "repro.service.cluster:ClusterService.serve",
    ),
    "service.admission": (
        "repro.service.admission:AdmissionController.offer",
        "repro.service.admission:AdmissionController.release_one",
    ),
    "service.batcher": (
        "repro.service.batcher:MicroBatcher.add",
        "repro.service.batcher:MicroBatcher.flush_due",
        "repro.service.batcher:MicroBatcher.flush",
        "repro.service.batcher:MicroBatcher.flush_now",
    ),
    "service.cache": (
        "repro.service.cache:ResultCache.get",
        "repro.service.cache:ResultCache.put",
    ),
    "service.answer": ("repro.service.server:answer",),
    "service.latency_model": ("repro.service.server:key_latency_ms",),
    "service.router": (
        "repro.service.router:rendezvous_owner",
        "repro.service.router:ReplicaPicker.pick",
    ),
    "service.index_lookup": (
        "repro.service.index:LinkStatusIndex.lookup",
        "repro.service.cluster:ShardIndex.lookup",
    ),
    "service.apply_delta": ("repro.service.reconfig:apply_delta",),
    # live generations
    "live.build": ("repro.live.incremental:IncrementalStudy.build",),
    "live.publish": ("repro.live.publisher:GenerationPublisher.publish",),
    "live.build_delta": ("repro.live.publisher:GenerationPublisher.build_delta",),
}

#: Spans the benchmark opens itself around each stage of a round.
STAGES: tuple[str, ...] = (
    "stage.worldgen", "stage.study", "stage.index", "stage.serve",
)


def _fetch_layer(args) -> str:
    """``Fetcher.fetch(self, url, at)``: robots.txt fetches are their
    own layer, because the crawler's robots check is a distinct cost."""
    return (
        "net.fetch_robots" if str(args[1]).endswith("/robots.txt")
        else "net.fetch"
    )


#: Layers whose name depends on the call's arguments.
_DYNAMIC_NAMES = {"net.fetch": _fetch_layer}

#: Layers that also accumulate an instance counter's growth per call,
#: as ``counter name -> attribute`` (read before and after the call).
_INSTANCE_COUNTERS = {"textsim.sketch": "misses"}


class LayerTracer:
    """Install timing wrappers, aggregate self/busy time, restore."""

    def __init__(self) -> None:
        #: Open frames, innermost last: ``[layer, seconds in children]``.
        self._stack: list[list] = []
        #: ``(layer, parent) -> [calls, busy_s, self_s]``.
        self.aggregates: dict[tuple[str, str], list] = {}
        #: ``layer.attribute -> growth`` for :data:`_INSTANCE_COUNTERS`.
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _close(self, name: str, frame: list, elapsed: float) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        key = (name, parent[0] if parent is not None else "")
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[1]

    @contextmanager
    def span(self, name: str):
        """Time a block as layer ``name`` (the benchmark's own stages)."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._close(name, frame, elapsed)

    def _wrap(self, name: str, fn):
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        pick = _DYNAMIC_NAMES.get(name)
        attr = _INSTANCE_COUNTERS.get(name)
        counters = self.counters

        if attr is not None:
            counter = f"{name}.{attr}"

            def wrapper(*args, **kwargs):
                before = getattr(args[0], attr)
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    close(name, frame, elapsed)
                    counters[counter] = (
                        counters.get(counter, 0)
                        + getattr(args[0], attr) - before
                    )
        else:

            def wrapper(*args, **kwargs):
                layer = pick(args) if pick is not None else name
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    close(layer, frame, elapsed)

        return functools.wraps(fn)(wrapper)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every callable in :data:`LAYERS` (idempotent per tracer)."""
        if self._patches:
            return
        for name, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    self._wrap_method(name, module, qualname)
                else:
                    self._wrap_function(name, getattr(module, qualname))

    def _wrap_method(self, name: str, module, qualname: str) -> None:
        class_name, _, attr = qualname.partition(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def _wrap_function(self, name: str, original) -> None:
        wrapped = self._wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------------

    def export(self) -> dict:
        """JSON-ready state, for :meth:`merge` in another process."""
        return {
            "aggregates": [
                [name, parent, *agg]
                for (name, parent), agg in sorted(self.aggregates.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }

    def merge(self, state: dict) -> None:
        """Fold another tracer's :meth:`export` into this one."""
        for name, parent, calls, busy, own in state["aggregates"]:
            agg = self.aggregates.setdefault((name, parent), [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += busy
            agg[2] += own
        for name, value in state["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time, and busy time.

        Busy time counts only outermost entries, so a layer re-entered
        from inside itself is not counted twice.
        """
        totals: dict[str, dict[str, float]] = {}
        for (name, parent), (calls, busy, own) in self.aggregates.items():
            entry = totals.setdefault(
                name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0}
            )
            entry["calls"] += calls
            entry["self_s"] += own
            if parent != name:
                entry["busy_s"] += busy
        return totals
