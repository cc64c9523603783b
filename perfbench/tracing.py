"""In-memory span tracing around the public calls of each ``repro`` layer.

The benchmark never edits ``src/``: it replaces a layer's public function
or method with a timing wrapper at *every* place the object is bound.
Several layers are bound at import time (``repro.core.optimizer`` holds
its own ``extract_dem``, ``build_memory_experiment`` and
``check_candidate``; ``repro.core.parallel`` holds
``find_ambiguous_subgraph`` and ``solve_min_weight_logical``), so a
module-level function is patched in every ``repro.*`` module namespace
that refers to it, and :meth:`Tracer.unpatched_sites` re-scans afterwards
to prove none was missed.  A method is patched on the class that defines
it.

Spans are kept in memory (name, start, end, thread, parent, request id,
per-call counts) and written out as JSON lines when the run ends.  A
span's *self time* is its duration minus the part covered by its child
spans; children are spans opened on the same thread while it was open.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "request", "info")

    def __init__(self, name, start, thread, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.parent = parent
        self.request = request
        self.info = None


@dataclass(frozen=True)
class Target:
    """One wrapped public call: ``module:qualname`` recorded as ``name``.

    ``info(args, kwargs, result, before)`` returns the per-call counts
    stored on the span; ``before(args, kwargs)`` runs ahead of the call
    (for counts that need the state before it).  ``request(args,
    kwargs)`` names the request the call serves, inherited by every span
    opened on any thread until the call returns.
    """

    name: str
    site: str
    info: Callable[..., dict] | None = None
    before: Callable[..., Any] | None = None
    request: Callable[..., str] | None = None


class Tracer:
    """Records spans; one client, so one request id at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: str | None = None
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        self._originals: dict[str, Any] = {}

    # -- wrapping --------------------------------------------------------------

    def _open(self, name: str) -> tuple[Span, list[Span]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            name,
            time.perf_counter(),
            threading.get_ident(),
            stack[-1] if stack else None,
            self.request,
        )
        self.spans.append(span)
        stack.append(span)
        return span, stack

    def _wrap(self, target: Target, fn):
        tracer = self
        name = target.name
        info, before, request = target.info, target.before, target.request

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Only the main thread sets request ids; spans on the shot
            # runner's prefetch thread inherit the current one.
            outer_request = tracer.request
            if request is not None:
                tracer.request = request(args, kwargs)
            pre = before(args, kwargs) if before is not None else None
            span, stack = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if request is not None:
                    tracer.request = outer_request
            if info is not None:
                span.info = info(args, kwargs, result, pre)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the root of a pass)."""
        span, stack = self._open(name)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def install(self, targets: list[Target]) -> None:
        """Patch every binding site of every target (see module docstring)."""
        for target in targets:
            module_name, qualname = target.site.split(":")
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:  # a method: patch the class that defines it
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(target, original))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(target, original)
                for module, key in _binding_sites(original):
                    self._patch(module, key, wrapper)
            self._originals[target.site] = original

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def unpatched_sites(self) -> list[str]:
        """Module attributes still bound to an original (must be empty)."""
        missed = []
        for site, original in self._originals.items():
            if "." in site.split(":")[1]:
                continue
            for module, key in _binding_sites(original):
                missed.append(f"{module.__name__}.{key} ({site})")
        return missed

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line (parent by span index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                row = {
                    "i": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "thread": threads.setdefault(span.thread, len(threads)),
                    "parent": None if span.parent is None else index[id(span.parent)],
                    "request": span.request,
                    "info": span.info,
                }
                fh.write(json.dumps(row) + "\n")


def _binding_sites(obj) -> list[tuple[Any, str]]:
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is obj:
                sites.append((module, key))
    return sites


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by ``id(span)``)."""
    own = {id(s): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.end - s.start
    return own
