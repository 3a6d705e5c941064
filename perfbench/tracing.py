"""Per-layer tracing from outside the engine.

`install()` wraps the public functions of each `alcnr` module in every
module that imported them by name (plus three `ConstraintSystem` methods on
the class).  What a wrapped call records depends on the `Recorder`:

- in a timed pass (`recorder.spans` set, `recorder.counts` None) each call
  records a span: layer name, start, end, parent span and query id.  The
  engine keeps its muted trace, so it runs exactly as it does untraced.
  Spans stay in compact arrays in memory until the run ends.
- in a counting pass (`recorder.counts` set, `recorder.spans` None) no span
  is timed; `CountingTrace` replaces the muted trace at the
  `services.complete` boundary and yields the rule, branch, clash, blocking
  and guard counts.  Building trace lines costs time, which is why the
  counts come from a pass of their own.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans under a query partition that query's time.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from array import array
from collections import Counter
from time import perf_counter

import alcnr
import alcnr.cli
from alcnr import constraints, tableau
from alcnr.tableau import MUTED_TRACE, Trace

RULES = ("and", "or", "forall", "global", "atmost", "exists", "atleast")

# layer span name -> functions recorded under it
LAYERS = {
    "syntax.parse": ("parse_kb", "parse_concept"),
    "syntax.simple_form": ("to_simple_form",),
    "constraints.translate": ("translate_kb",),
    "tableau.search": ("complete",),
    "tableau.select": ("first_rule_instance",),
    "tableau.clash_check": ("detect_clash",),
    "canonical.extract": ("extract_model",),
    "canonical.selfcheck": ("satisfies_system",),
    "semantics.is_model": ("is_model",),
    "semantics.oracle": ("find_model_bounded",),
    "services": ("kb_satisfiable", "concept_satisfiable", "subsumed_by",
                 "instance_of", "instances", "augment_for_concept_sat",
                 "augment_for_subsumption", "augment_for_instance"),
    "encodings.transform": ("inclusions_to_introduction",),
    "cli": ("run",),
}
METHODS = {
    "constraints.extend": "extended",
    "constraints.substitute": "substituted",
    "constraints.witness": "witness",
}
# modules whose global names are rebound wherever they hold a layer function
MODULES = ("alcnr", "alcnr.syntax", "alcnr.semantics", "alcnr.constraints",
           "alcnr.tableau", "alcnr.canonical", "alcnr.services",
           "alcnr.encodings", "alcnr.cli")

_CHOICE = re.compile(r" choice \d+/\d+")


class CountingTrace(Trace):
    """A trace that parses each line of the stable trace grammar into counts
    and stores no lines."""

    def __init__(self, counts: Counter):
        super().__init__(limit=1)
        self.counts = counts

    def emit(self, text: str) -> None:
        self.steps += 1
        counts = self.counts
        if text.startswith("blocked on "):
            counts["blocked"] += 1
        elif text.startswith("guard: "):
            counts["guard_trips"] += 1
        elif text.startswith("clash: "):
            counts["clashes"] += 1
        else:
            counts["applications." + text.split(" ", 1)[0]] += 1
            if _CHOICE.search(text):
                counts["branches"] += 1
            if "| clash: " in text:
                counts["clashes"] += 1


class Spans:
    """Spans in parallel arrays; `query` is the current query id (-1 outside
    queries).  Span names are ids into the recorder's name table."""

    def __init__(self, recorder: Recorder):
        self.names = recorder.names
        self.name_id = recorder.name_id
        self.name = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.query = -1

    def open(self, name_id: int) -> tuple[int, int]:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.qid.append(self.query)
        self.end.append(0.0)
        depth = len(self.stack)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i, depth

    def close(self, span: tuple[int, int]) -> None:
        self.end[span[0]] = perf_counter()
        del self.stack[span[1]:]

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds by name, calls by name, total query-root seconds)
        over the spans recorded inside queries."""
        n = len(self.start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        roots = 0.0
        for i in range(n):
            if self.qid[i] < 0:
                continue
            name = self.names[self.name[i]]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] += 1
            if self.parent[i] < 0:
                roots += dur[i]
        return self_s, calls, roots

    def write(self, path) -> None:
        """A JSON header line (names, span count, array layout), then the
        arrays in that order, native byte order."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"], ["query", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.qid, self.start, self.end):
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """(span names, arrays by name) of a file `Spans.write` wrote."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for key, code in header["arrays"]:
            arrays[key] = array(code)
            arrays[key].fromfile(fh, header["count"])
    return header["names"], arrays


class Recorder:
    """Where the wrapped functions record; see the module docstring.  It
    also holds the span-name table, so that every `Spans` it is given
    numbers the layers alike."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: Spans | None = None
        self.counts: Counter | None = None

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found


def _wrap(fn, span_name: int, recorder: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        spans = recorder.spans
        if spans is None:
            return fn(*args, **kwargs)
        span = spans.open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.close(span)
    return traced


def install(recorder: Recorder) -> None:
    """Wrap every layer function wherever it is bound by name."""
    originals = {}
    for layer, fnames in LAYERS.items():
        for fname in fnames:
            mod = alcnr.cli if fname == "run" else _defining_module(fname)
            originals[getattr(mod, fname)] = layer
    wrapped = {}
    for modname in MODULES:
        mod = sys.modules[modname]
        for attr, value in list(vars(mod).items()):
            layer = originals.get(value) if callable(value) else None
            if layer is None:
                continue
            if value not in wrapped:
                traced = _wrap(value, recorder.name_id(layer), recorder)
                wrapped[value] = _counting(value, traced, recorder)
            setattr(mod, attr, wrapped[value])
    for layer, method in METHODS.items():
        cls = constraints.ConstraintSystem
        setattr(cls, method, _wrap(getattr(cls, method), recorder.name_id(layer), recorder))


def _defining_module(fname: str):
    for modname in MODULES[1:]:
        fn = vars(sys.modules[modname]).get(fname)
        if fn is not None and getattr(fn, "__module__", None) == modname:
            return sys.modules[modname]
    raise LookupError(f"no alcnr module defines {fname}")


def _counting(fn, traced, recorder: Recorder):
    """In a counting pass, around `complete`: run it under a CountingTrace in
    place of the muted trace and count what it returns; around
    `translate_kb`: count the initial system.  Other functions, and every
    function in a timed pass, are returned as traced."""
    if fn is tableau.complete:
        @functools.wraps(fn)
        def complete(system, guards=None, trace=None):
            counts = recorder.counts
            if counts is None:
                return traced(system, guards, trace)
            if trace is None or trace is MUTED_TRACE:
                trace = CountingTrace(counts)
            result = traced(system, guards, trace)
            if result.completion is not None:
                counts["completion_constraints"] += len(result.completion.constraints)
            return result
        return complete
    if fn is constraints.translate_kb:
        @functools.wraps(fn)
        def translate_kb(kb):
            system = traced(kb)
            counts = recorder.counts
            if counts is not None:
                counts["initial_constraints"] += len(system.constraints)
                counts["distinct_constraints"] += sum(
                    1 for c in system.constraints if type(c).__name__ == "Distinct")
            return system
        return translate_kb
    return traced
