"""In-memory span tracer that wraps program functions from the outside.

A target is named as `module:attribute`, the place the caller looks the
function up, e.g. `clickbait_gru.train:forward_batch` is the forward pass
`backprop` calls and `clickbait_gru.nn:forward_batch` the one `predict_batch`
calls. Wrapping leaves the program's files untouched. A target that no longer
exists is reported as missing; it never stops the run.
"""

import functools
import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str  # defining module and function, e.g. "nn.forward_batch"
    site: str  # module whose attribute was wrapped, e.g. "train"
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object, object]] = []

    def wrap(self, target: str, name: str, probe=None) -> None:
        """Replace `module:attr` by a timing wrapper recording spans named `name`.

        `probe(args, kwargs, result)` may return a dict of counts stored on
        the span; it runs after the span closes, so its cost is not timed.
        """
        module_name, attr = target.split(":")
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        site = module_name.rsplit(".", 1)[-1]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, site, 0.0, parent=stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    span.info = probe(args, kwargs, result)
                except Exception as exc:  # a probe must never fail the program
                    span.info = {"probe_error": repr(exc)}
            return result

        self._wrapped.append((module, attr, fn, wrapper))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Put every wrapper back after `uninstall`."""
        for module, attr, _, wrapper in self._wrapped:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions; spans recorded so far are kept."""
        for module, attr, fn, _ in reversed(self._wrapped):
            setattr(module, attr, fn)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: str) -> None:
        """One JSON array per span: name, site, start, end, parent, info."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.site, s.start, s.end, s.parent, s.info]) + "\n")
