"""Span tracing of the nldc package from outside it.

`Tracer.install` rebinds every public function of every loaded `nldc`
module to a wrapper, in every `nldc` namespace that binds it (so
`nldc.biphoton.to_time_2d`, imported from `_fft`, is traced as
`_fft.to_time_2d`), and `uninstall` restores the originals.  No file of the
package is edited.  Each call records a span: the command id set by the
caller, the parent span, the layer name, start and end, and for writers
the bytes of the file written.  Spans stay in memory until the caller
writes them out.

Self time is a span's duration minus the time its child spans cover.  The
package is single-threaded, so child spans never overlap and their
coverage is the sum of their durations; the self times of one command then
add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types

# Functions whose second argument is the path of the one file they write.
_WRITER_SUFFIXES = ("_to_csv", "_to_binary")
_WRITERS = {"render_scatter", "render_tau_hist", "write_scan_csv"}

COMMAND, PARENT, NAME, START, END, BYTES = range(6)


def layer_name(fn) -> str:
    """`module.function` relative to the package, e.g. `_fft.to_time_2d`."""
    return f"{fn.__module__.partition('.')[2] or 'nldc'}.{fn.__qualname__}"


def _written_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


def _transform_bytes(args, kwargs) -> int:
    """Bytes a transform reads and writes, computed from the complex128 input size."""
    values = kwargs.get("values", args[0])
    return 2 * 16 * getattr(values, "size", len(values))


def _byte_rule(fn):
    if fn.__name__.endswith(_WRITER_SUFFIXES) or fn.__name__ in _WRITERS:
        return _written_bytes
    if fn.__module__ == "nldc._fft":
        return _transform_bytes
    return None


def _public_function(value) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and value.__module__.split(".")[0] == "nldc"
        and not value.__name__.startswith("_")
    )


class Tracer:
    def __init__(self):
        self.spans: list = []  # [command, parent index, name, start, end, bytes]
        self.command = None
        self._stack: list = []
        self._bindings: list = []  # (module, attribute, original function)

    def install(self) -> None:
        wrappers: dict = {}
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "nldc":
                continue
            for attr, value in list(vars(module).items()):
                if not _public_function(value):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._bindings.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in self._bindings:
            setattr(module, attr, value)
        self._bindings.clear()

    def _wrap(self, fn):
        name = layer_name(fn)
        measure = _byte_rule(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.command, stack[-1] if stack else None, name, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[BYTES] = measure(args, kwargs)
            return result

        return traced

    def layer_totals(self, commands) -> dict:
        """{layer: [calls, self seconds, bytes]} over the spans of the given commands."""
        commands = set(commands)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        totals: dict = {}
        for index, span in enumerate(self.spans):
            if span[COMMAND] not in commands:
                continue
            entry = totals.setdefault(span[NAME], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += span[END] - span[START] - child[index]
            entry[2] += span[BYTES]
        return totals

    def root_seconds(self, command) -> float:
        """Summed duration of the command's root spans (normally the one `cli.main`)."""
        return sum(s[END] - s[START] for s in self.spans if s[COMMAND] == command and s[PARENT] is None)
