"""Runtime spans around the program's public entry points.

Nothing under src/ changes: `Tracer.install` replaces each entry point
with a timing wrapper in the module that defines it and in every
`fcrystals` module that imported the name, and `uninstall` puts the
originals back.  Spans stay in memory as (op, id, parent, entry, start,
end) rows and are written out once, when the run ends.
"""

import importlib
import json
import sys
import time

# (layer module, dotted name); a class name alone traces its construction
ENTRY_POINTS = [
    ("witt", "make_witt_ring"),
    ("witt", "WittElem.embed"),
    ("plinalg", "Matrix.__matmul__"),
    ("plinalg", "Matrix.sigma"),
    ("plinalg", "smith_normal_form"),
    ("plinalg", "IntSolver"),
    ("plinalg", "IntSolver.solve"),
    ("plinalg", "howell_form"),
    ("plinalg", "exp_trunc"),
    ("plinalg", "unit_inverse_matrix"),
    ("crystal", "FCrystal"),
    ("crystal", "newton_polygon"),
    ("semilinear", "hom_module"),
    ("semilinear", "unit_search"),
    ("semilinear", "solve_circular"),
    ("stairs", "build_stairs_datum"),
    ("stairs", "stairs_run"),
    ("stairs", "lang_run"),
    ("stairs", "StairsDatum.coords"),
    ("stairs", "StairsDatum.base_change"),
    ("truncation", "i_number_probe"),
    ("truncation", "polarized_isom_search"),
    ("files", "read_crystal"),
    ("cli", "main"),
]

# Self times printed as per-layer metrics: those of the entry points, and
# the summed ones of the layers, that every workload reaches inside its ops.
# An entry point a workload never calls reads exactly 0.0 ms on every run
# of it, a time that measures nothing (call counts, which must repeat, are
# printed for all).  The layer sums carry the rest: on isom-negative
# semilinear's is nearly all unit scan.  The trace file holds every entry's
# self time.
SELF_MS_ENTRIES = ["witt.make_witt_ring", "plinalg.IntSolver",
                   "plinalg.howell_form", "semilinear.hom_module"]
SELF_MS_LAYERS = ["witt", "plinalg", "semilinear"]

# spans kept for the trace file; the per-entry totals count every call
MAX_SPANS = 2_000_000


class Tracer:
    def __init__(self):
        self.labels = [f"{m}.{n}" for m, n in ENTRY_POINTS]
        self.calls = [0] * len(self.labels)
        self.self_ns = [0] * len(self.labels)
        self.spans = []
        self.dropped = 0
        self.op = None
        self._stack = []   # [entry index, span id, child ns]
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, idx, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [idx, sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[idx] += 1
                self.self_ns[idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op, sid, parent, idx, start, end))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        for idx, (module, name) in enumerate(ENTRY_POINTS):
            mod = importlib.import_module(f"fcrystals.{module}")
            if "." in name:
                cls_name, meth = name.split(".")
                self._patch(getattr(mod, cls_name), meth, idx)
                continue
            obj = getattr(mod, name)
            if isinstance(obj, type):
                self._patch(obj, "__init__", idx)
                continue
            wrapper = self._wrap(idx, obj)
            for mname, other in list(sys.modules.items()):
                if other is None or not (mname == "fcrystals"
                                         or mname.startswith("fcrystals.")):
                    continue
                for attr, val in list(vars(other).items()):
                    if val is obj:
                        setattr(other, attr, wrapper)
                        self._undo.append((other, attr, obj))

    def _patch(self, owner, attr, idx):
        orig = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(idx, orig))
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self):
        return list(self.calls), list(self.self_ns)

    def reported_self_ms(self, self_ns):
        """{entry or layer: self ms} for the self times printed."""
        out = {label: ns / 1e6 for label, ns in zip(self.labels, self_ns)
               if label in SELF_MS_ENTRIES}
        for layer in SELF_MS_LAYERS:
            out[layer] = sum(ns for (module, _), ns
                             in zip(ENTRY_POINTS, self_ns)
                             if module == layer) / 1e6
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "entries": self.labels,
                "columns": ["op", "id", "parent", "entry", "start_ns",
                            "end_ns"],
                "dropped": self.dropped,
                "spans": self.spans,
            }, fh, separators=(",", ":"))
            fh.write("\n")
