"""Per-layer self time, measured from outside the program.

The traced run replaces named public functions of the program with
timing wrappers (:meth:`Tracer.install`) and puts the originals back
afterwards (:meth:`Tracer.restore`); nothing inside ``src/`` records a
span for the benchmark.  Each wrapped call is a frame on a per-thread
stack, and a layer's **self time** is its frames' time minus the time
of wrapped frames nested inside them, so the self times of one request
add up to at most its wall time and never count a nanosecond twice.

Generator functions (the streaming passes) are wrapped per pulled
item: each ``next()`` is one frame, so upstream pulls nest inside it
and a pass is charged only for its own work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["LayerTotals", "Tracer", "Hook"]


@dataclass
class LayerTotals:
    """Accumulated self time, frame count and work units of one layer."""

    seconds: float = 0.0
    calls: int = 0
    units: int = 0


@dataclass(frozen=True)
class Hook:
    """One function to wrap: ``owner.attr`` charged to ``layer``.

    ``units(args, result)`` returns the work a call did (gates, ops);
    ``generator`` marks a function returning an iterator whose items are
    timed one pull at a time, ``units`` then receiving ``((), item)``.
    """

    owner: Any
    attr: str
    layer: str
    units: Callable[[tuple, Any], int] | None = None
    generator: bool = False


@dataclass
class _Patch:
    owner: Any
    attr: str
    saved: Any  # the owner's own attribute (a classmethod stays one)
    had_own: bool


class Tracer:
    """Self-time accounting over wrapped functions, thread-aware."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: dict[str, LayerTotals] = {}
        self._patches: list[_Patch] = []

    # -- accounting ---------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer: str, elapsed: float, child: float, units: int) -> None:
        with self._lock:
            totals = self._totals.get(layer)
            if totals is None:
                totals = self._totals[layer] = LayerTotals()
            totals.seconds += elapsed - child
            totals.calls += 1
            totals.units += units

    def timed(self, layer: str, fn: Callable[..., Any], *args: Any,
              units: Callable[[tuple, Any], int] | None = None,
              **kwargs: Any) -> Any:
        """Call ``fn`` as one frame of ``layer``; nested frames are subtracted."""
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        started = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            count = units(args, result) if units is not None and result is not None else 0
            self._close(layer, elapsed, frame[0], count)
            if stack:
                stack[-1][0] += elapsed

    def take(self) -> dict[str, LayerTotals]:
        """Return the totals since the last call and start afresh."""
        with self._lock:
            totals, self._totals = self._totals, {}
        return totals

    # -- wrapping -----------------------------------------------------------

    def _wrap_call(self, hook: Hook, original: Callable[..., Any]):
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.timed(
                hook.layer, original, *args, units=hook.units, **kwargs
            )

        return wrapper

    def _wrap_generator(self, hook: Hook, original: Callable[..., Any]):
        tracer = self

        def pulls(iterator: Iterator[Any]) -> Iterator[Any]:
            units = hook.units
            sentinel = object()
            while True:
                item = tracer.timed(
                    hook.layer, next, iterator, sentinel,
                    units=None if units is None else (
                        lambda _args, value: 0 if value is sentinel
                        else units((), value)
                    ),
                )
                if item is sentinel:
                    return
                yield item

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return pulls(iter(original(*args, **kwargs)))

        return wrapper

    def install(self, hooks: list[Hook]) -> None:
        """Replace every hooked attribute with its timing wrapper."""
        if self._patches:
            raise RuntimeError("tracer hooks are already installed")
        for hook in hooks:
            had_own = hook.attr in vars(hook.owner)
            saved = vars(hook.owner).get(hook.attr)
            original = getattr(hook.owner, hook.attr)
            make = self._wrap_generator if hook.generator else self._wrap_call
            self._patches.append(
                _Patch(hook.owner, hook.attr, saved, had_own)
            )
            setattr(hook.owner, hook.attr, make(hook, original))

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            patch = self._patches.pop()
            if patch.had_own:
                setattr(patch.owner, patch.attr, patch.saved)
            else:
                delattr(patch.owner, patch.attr)
