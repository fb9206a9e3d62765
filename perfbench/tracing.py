"""Span tracing of the cantorsurj layers, installed from outside the library.

The tracer wraps public functions and a few methods of the library modules.
Coarse layer boundaries (greedy splits, fingerprints, distances, scans, cell
searches, generators) record one span each: name, start, end, parent span
and item id, kept in flat arrays in memory and written out at exit.  Hot
primitives record no spans and only bump counters:

* ``Point`` construction and ``Point.compare`` (millions per workload) are
  counted per span, charged to the innermost open span;
* ``Filtering.boundary_entry``, ``Filtering.child_maxima``,
  ``ChainSurjection.boundary_entry`` and the inner ``preimage_max`` pulls
  made from a chain entry are counted globally.

Modules bind names with ``from .x import y``, so a wrapper is re-bound in
every ``cantorsurj`` module whose namespace holds the original object.
A function or method that a later version of the library no longer has is
skipped; the metrics that depend on it then read 0.

``cli`` gets no spans: it does argparse plus the same ``from_json`` decoders
that the benchmark items already call, so it would only add a layer with
no work of its own.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

SPAN_LAYERS = ("intervals", "surjections", "similarity", "experiments", "randgen")

# module-level functions outside __all__ that are layer boundaries anyway
EXTRA_FUNCTIONS = {"surjections": ("surjection_from_json",)}

# methods that record spans: (module, class, method, span name)
METHODS = (
    ("intervals", "Filtering", "boundary_tuple", "intervals.boundary_tuple"),
    ("intervals", "Filtering", "extend", "intervals.extend"),
    ("surjections", "Surjection", "evaluate", "surjections.evaluate"),
    ("surjections", "Surjection", "fingerprint", "surjections.fingerprint"),
    ("surjections", "FilteringSurjection", "fingerprint", "surjections.fingerprint"),
    ("surjections", "Surjection", "structurally_equal", "surjections.structurally_equal"),
)

# global counter slots
C_BOUNDARY_ENTRY = 0
C_CHILD_MAXIMA = 1
C_CHAIN_ENTRY = 2
C_CHAIN_PULL = 3
C_GUARD_ANSWERS = 4
C_CELL_HITS = 5
C_TUPLES = 6
C_FP_ENTRIES = 7
N_COUNTERS = 8

SINK = 0  # span slot that absorbs counts while the tracer is paused


class Tracer:
    """Spans and counters for one worker process."""

    def __init__(self) -> None:
        self.names: list[str] = ["<sink>"]
        self._name_ids: dict[str, int] = {"<sink>": 0}
        self.name = array("i", [0])
        self.start = array("d", [0.0])
        self.end = array("d", [0.0])
        self.parent = array("i", [-1])
        self.item = array("i", [-1])
        self.points = array("q", [0])
        self.compares = array("q", [0])
        self.live = [0] * N_COUNTERS
        self._sink_counts = [0] * N_COUNTERS
        # state[0]: innermost open span, state[1]: counter list in use,
        # state[2]: current item id
        self.state: list = [SINK, self._sink_counts, -1]
        self._root = SINK

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = len(self.names)
            self.names.append(name)
            self._name_ids[name] = got
        return got

    def open(self, name_id: int) -> int:
        st = self.state
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(st[0])
        self.item.append(st[2])
        self.points.append(0)
        self.compares.append(0)
        self.end.append(0.0)
        self.start.append(perf_counter())
        st[0] = idx
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.state[0] = self.parent[idx]

    def resume(self) -> None:
        """Record from here on; top-level spans hang below a root span."""
        self.state[1] = self.live
        if self._root == SINK:
            self.state[0] = SINK
            self._root = self.open(self.name_id("<root>"))
        self.state[0] = self._root

    def pause(self) -> None:
        """Stop recording: later calls charge the sink slot and open no spans."""
        self.state[0] = SINK
        self.state[1] = self._sink_counts

    def set_item(self, item: int) -> None:
        self.state[2] = item

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, fn, name: str, on_result=None):
        nid = self.name_id(name)
        st, live, tr = self.state, self.live, self

        def wrapper(*args, **kwargs):
            if st[1] is not live:
                return fn(*args, **kwargs)
            idx = tr.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def counter_wrapper(self, fn, slot: int):
        st = self.state

        def wrapper(*args, **kwargs):
            st[1][slot] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    @staticmethod
    def _rebind_everywhere(original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cantorsurj" or modname.startswith("cantorsurj.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the library in place.  Call after importing cantorsurj and
        before the benchmark looks up any library function."""
        import cantorsurj  # noqa: F401  (loads every submodule)

        mods = {name: sys.modules[f"cantorsurj.{name}"] for name in SPAN_LAYERS}
        counts = self.live

        def tally(slot, amount):
            def hook(result):
                counts[slot] += amount(result)
            return hook

        on_result = {
            "surjections.distance": tally(C_GUARD_ANSWERS, lambda r: getattr(r, "certified", "") == "guard"),
            "experiments.find_cell_within": tally(C_CELL_HITS, lambda r: r is not None),
            "similarity.scan_types": tally(C_TUPLES, lambda r: getattr(r, "combos", 0)),
            "surjections.fingerprint": tally(C_FP_ENTRIES, len),
        }
        for layer, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_FUNCTIONS.get(layer, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if not _is_plain_function(fn, mod):
                    continue
                name = f"{layer}.{attr}"
                self._rebind_everywhere(fn, self.span_wrapper(fn, name, on_result.get(name)))

        for modname, clsname, meth, name in METHODS:
            cls = getattr(mods[modname], clsname, None)
            if cls is None or meth not in cls.__dict__:
                continue
            setattr(cls, meth, self.span_wrapper(cls.__dict__[meth], name, on_result.get(name)))

        intervals, surjections = mods["intervals"], mods["surjections"]
        filtering = getattr(intervals, "Filtering", None)
        for meth, slot in (("boundary_entry", C_BOUNDARY_ENTRY), ("child_maxima", C_CHILD_MAXIMA)):
            if filtering is not None and meth in filtering.__dict__:
                setattr(filtering, meth, self.counter_wrapper(filtering.__dict__[meth], slot))
        self._install_chain_counters(surjections)
        self._install_point_counters(sys.modules["cantorsurj.points"])

    def _install_chain_counters(self, surjections) -> None:
        """Chain entries, and the inner preimage_max pulls a chain entry makes
        (a pull is a chain-memo miss).  A marker stack tells a pull made
        directly by a chain entry from any other preimage_max call."""
        st = self.state
        marks: list[int] = []
        chain = getattr(surjections, "ChainSurjection", None)
        if chain is not None and "boundary_entry" in chain.__dict__:
            entry = chain.__dict__["boundary_entry"]

            def chain_entry(self_, *args, **kwargs):
                st[1][C_CHAIN_ENTRY] += 1
                marks.append(1)
                try:
                    return entry(self_, *args, **kwargs)
                finally:
                    marks.pop()

            setattr(chain, "boundary_entry", chain_entry)
        for clsname in ("Surjection", "ChainSurjection"):
            cls = getattr(surjections, clsname, None)
            if cls is None or "preimage_max" not in cls.__dict__:
                continue
            pm = cls.__dict__["preimage_max"]

            def preimage_max(self_, *args, _pm=pm, **kwargs):
                if marks and marks[-1] == 1:
                    st[1][C_CHAIN_PULL] += 1
                marks.append(0)
                try:
                    return _pm(self_, *args, **kwargs)
                finally:
                    marks.pop()

            setattr(cls, "preimage_max", preimage_max)

    def _install_point_counters(self, points) -> None:
        st, built, compares = self.state, self.points, self.compares
        point = points.Point
        post_init = point.__dict__.get("__post_init__")
        if post_init is not None:
            def counted_post_init(self_):
                built[st[0]] += 1
                post_init(self_)

            setattr(point, "__post_init__", counted_post_init)
        compare = point.__dict__.get("compare")
        if compare is not None:
            def counted_compare(self_, other):
                compares[st[0]] += 1
                return compare(self_, other)

            setattr(point, "compare", counted_compare)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "columns": SPAN_COLUMNS}) + "\n")
            for i in range(1, len(self.name)):
                out.write(
                    json.dumps(
                        [self.name[i], self.start[i], self.end[i], self.parent[i], self.item[i],
                         self.points[i], self.compares[i]]
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Per span name: count, inclusive time of outermost spans, self time,
        and Points built / compared inside (inclusive); plus the counters and
        the number of fingerprint levels compared by distance."""
        if self._root != SINK:
            self.end[self._root] = perf_counter()
        n = len(self.name)
        child_time = [0.0] * n
        pts_incl = list(self.points)
        cmp_incl = list(self.compares)
        for i in range(n - 1, 0, -1):
            p = self.parent[i]
            if p > 0:
                child_time[p] += self.end[i] - self.start[i]
                pts_incl[p] += pts_incl[i]
                cmp_incl[p] += cmp_incl[i]
        names = self.names
        per: dict[str, dict] = {}
        fp_in_distance = 0
        fp_id = self._name_ids.get("surjections.fingerprint", -1)
        dist_id = self._name_ids.get("surjections.distance", -1)
        for i in range(1, n):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            rec = per.setdefault(
                names[nid], {"count": 0, "time": 0.0, "self": 0.0, "points": 0, "compares": 0}
            )
            rec["count"] += 1
            rec["self"] += dur - child_time[i]
            # inclusive time and counts only for spans not nested in their own name
            p = self.parent[i]
            while p > 0 and self.name[p] != nid:
                p = self.parent[p]
            if p <= 0:
                rec["time"] += dur
                rec["points"] += pts_incl[i]
                rec["compares"] += cmp_incl[i]
            if nid == fp_id and self.parent[i] > 0 and self.name[self.parent[i]] == dist_id:
                fp_in_distance += 1
        return {
            "spans": per,
            "counters": list(self.live),
            "points_built": sum(self.points[1:]),
            "points_compares": sum(self.compares[1:]),
            "distance_levels": fp_in_distance // 2,
            "layer_outer_time": self._layer_outer_time(),
        }

    def _layer_outer_time(self) -> dict[str, float]:
        """Per layer, the time of spans with no ancestor in the same layer."""
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        out: dict[str, float] = {}
        for i in range(1, len(self.name)):
            layer = layer_of[self.name[i]]
            p = self.parent[i]
            while p > 0 and layer_of[self.name[p]] != layer:
                p = self.parent[p]
            if p <= 0:
                out[layer] = out.get(layer, 0.0) + self.end[i] - self.start[i]
        return out


SPAN_COLUMNS = ["name", "start", "end", "parent", "item", "points_self", "compares_self"]


def _is_plain_function(fn, mod) -> bool:
    """A module-level function (or lru_cache wrapper of one) defined in mod."""
    if fn is None:
        return False
    target = getattr(fn, "__wrapped__", fn)
    return inspect.isfunction(target) and target.__module__ == mod.__name__
