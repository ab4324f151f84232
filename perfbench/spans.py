"""In-memory span recording around the public functions of each layer.

The benchmark times layers from the outside: :class:`Tracer` replaces a
function with a wrapper that records one :class:`Span` per call (name,
start, end, parent span, op id, served request ids) and puts the original
back when the traced op ends.  Nothing under ``src/`` knows about it.

A function imported by name (``from repro.core.rounding import
round_fractional_solution``) lives on in every importing module's
namespace, so :meth:`Tracer.install` patches *every* loaded ``repro``
module attribute that is the original object, not just the defining one.

Parents come from a per-thread stack.  A thread whose stack is empty (a
service executor thread) starts a new root under the tracer's current op;
spans opened while serving a request carry that request's id, which is
what matches an execution to its submission for queue-wait figures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Span:
    """One timed call: ``[start, end)`` on ``time.perf_counter``'s clock."""

    span_id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    op: int | None = None
    requests: tuple[int, ...] = ()
    thread: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """Where to wrap: ``owner.attribute`` recorded as span ``name``.

    ``owner`` is a module path (patched in every ``repro`` module holding
    the same object) or a ``module:Class`` path (patched on the class).
    ``annotate(span, args, kwargs, result)`` may add counts to the span.
    ``serves(args)`` names the service requests the call executes.
    """

    owner: str
    attribute: str
    name: str
    annotate: Callable[..., None] | None = None
    serves: Callable[[tuple], Sequence[Any]] | None = None


class Tracer:
    """Collects :class:`Span` records while its probes are installed."""

    def __init__(self, probes: Iterable[Probe] = ()) -> None:
        self.probes = tuple(probes)
        self.spans: list[Span] = []
        self.current_op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording                                                          #
    # ------------------------------------------------------------------ #

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, requests: Sequence[int] = ()) -> Span:
        """Start a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            span_id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=parent.span_id if parent else None,
            op=parent.op if parent else self.current_op,
            requests=tuple(requests) or (parent.requests if parent else ()),
            thread=threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    def wrap(self, function: Callable, probe: Probe) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            requests = ()
            if probe.serves is not None:
                served = probe.serves(args)
                requests = tuple(request.request_id for request in served)
            span = tracer.open(probe.name, requests)
            if probe.serves is not None:
                span.attrs["submitted_at"] = [r.submitted_at for r in served]
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            if probe.annotate is not None:
                probe.annotate(span, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Installation                                                       #
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every probe target; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for probe in self.probes:
                self._install_probe(probe)
        except BaseException:
            self.uninstall()
            raise

    def _install_probe(self, probe: Probe) -> None:
        module_name, _, class_name = probe.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            owner = getattr(module, class_name)
            raw = owner.__dict__[probe.attribute]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(raw.__func__, probe))
            else:
                patched = self.wrap(raw, probe)
            self._patch(owner, probe.attribute, raw, patched)
            return
        original = getattr(module, probe.attribute)
        patched = self.wrap(original, probe)
        for holder in list(sys.modules.values()):
            name = getattr(holder, "__name__", None) or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            if getattr(holder, probe.attribute, None) is original:
                self._patch(holder, probe.attribute, original, patched)

    def _patch(self, holder: Any, attribute: str, original: Any, patched: Any) -> None:
        setattr(holder, attribute, patched)
        self._patches.append((holder, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            holder, attribute, original = self._patches.pop()
            setattr(holder, attribute, original)


# ---------------------------------------------------------------------- #
# Span arithmetic                                                         #
# ---------------------------------------------------------------------- #


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def children_of(spans: Sequence[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """A span's duration minus the part of it its children cover."""
    inside = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children.get(span.span_id, ())
    ]
    inside = [(start, end) for start, end in inside if end > start]
    return span.duration - covered_length(inside)


def outermost(spans: Sequence[Span], name: str, under: str | None = None) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name.

    With ``under`` set, spans that have an ancestor called ``under`` are
    dropped too (e.g. feasibility checks a solver runs internally).
    """
    by_id = {span.span_id: span for span in spans}
    chosen = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == name or parent.name == under:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            chosen.append(span)
    return chosen
