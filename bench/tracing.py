"""In-memory spans around calls into bridgeref's public functions.

The tracer wraps, from the outside, every public function of the layers
named in ``LAYERS`` and rebinds each module attribute that refers to it, so
calls between bridgeref modules are seen too; no file of the package
changes.  Each call records a span (name, start, end, parent) unless the
function is in ``COUNTED_ONLY``: those run hundreds of thousands of times
per document, so they only add to call counts and times, which keeps the
trace small and its overhead bounded.  Self time is a call's duration
minus the part of it covered by wrapped calls it made.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("corpus", "lexicons", "salience", "resolver", "evaluate", "explain", "cli")
COUNTED_ONLY = frozenset({
    "lexicons.similarity_level", "lexicons.similarity_score",
    "lexicons.satisfies_constraint", "lexicons.xnoy_modifier_set",
    "lexicons.lookup_case_frame", "salience.classify_salience",
    "salience.default_rows", "resolver.referential_property",
})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []            # (id, name, start, end, parent)
        self.stats: dict[str, list] = {}        # name -> [calls, total_s, self_s]
        self.similarity_pairs: set = set()
        self.candidates_scored = 0
        self.phrases_parsed = 0
        self._stack: list[list] = []            # [span id or None, parent id, child_s]
        self._next_id = 0
        self._patched: list[tuple] = []         # (module, attribute, original)

    # -- spans ------------------------------------------------------------

    def _enter(self, record: bool) -> list:
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top[1] if top[0] is None else top[0]
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, parent, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float,
              record: bool) -> None:
        self._stack.pop()
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if record:
            self.spans.append((frame[0], name, start, end, frame[1]))

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span for one benchmark phase (setup, pass, ...)."""
        frame = self._enter(True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, perf_counter(), True)

    def add_span(self, name: str, start: float, end: float) -> None:
        frame = self._enter(True)
        self._exit(name, frame, start, end, True)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        record = name not in COUNTED_ONLY
        enter, leave = self._enter, self._exit

        if name == "lexicons.similarity_level":
            pairs = self.similarity_pairs

            def wrapper(*args, **kwargs):
                pairs.add((args[0], args[1]))
                frame = enter(False)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(name, frame, start, perf_counter(), False)
            return wrapper

        tracer = self

        def wrapper(*args, **kwargs):
            frame = enter(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame, start, perf_counter(), record)
            if name == "resolver.resolve":
                tracer.candidates_scored += len(result.proposals)
            elif name == "corpus.parse_corpus":
                tracer.phrases_parsed += sum(
                    len(s.phrases) for d in result for s in d.sentences)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module already imported."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"bridgeref.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) \
                        or value.__module__ != module.__name__:
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module_name, module in list(sys.modules.items()):
            if module_name != "bridgeref" and not module_name.startswith("bridgeref."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one summary line of per-function stats."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent in sorted(self.spans):
                out.write(json.dumps({"id": span_id, "name": name,
                                      "start": round(start - origin, 9),
                                      "end": round(end - origin, 9),
                                      "parent": parent}) + "\n")
            out.write(json.dumps({
                "summary": {name: {"calls": c, "total_s": t, "self_s": s}
                            for name, (c, t, s) in sorted(self.stats.items())},
                "layer_self_s": self.layer_self_times(),
            }) + "\n")
