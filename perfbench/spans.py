"""In-memory spans around kmsdyn's public functions, recorded from outside.

The tracer rebinds every module attribute and class attribute of the
``kmsdyn`` package that holds one of the wrapped functions, so a call
through ``from .x import f`` copies is traced as well as a call through
``x.f``.  Nothing in ``src/`` is edited; ``installed()`` restores the
original bindings on exit.

A span is (name, start, end, parent, tag), start/end in
``time.perf_counter_ns`` units.  The tag carries the polynomial degree for
``polyroots.roots`` and the sample count for chaos-mode
``ifs.hutchinson``; it is 0 elsewhere.  Counts that normalise a layer's
time (atoms in and out of a merge, atoms checked, bytes emitted) are
summed per function at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# Layer = kmsdyn module.  Each target is (layer, attribute path in it).
TARGETS = [
    ("polyroots", "roots"),
    ("ratmap", "RationalMap.preimages"),
    ("ratmap", "RationalMap.backward_orbit"),
    ("ratmap", "RationalMap.evaluate"),
    ("projective", "merge_weighted"),
    ("measure", "merge_planar"),
    ("measure", "TestFunctionLibrary.values_matrix"),
    ("kms", "kms_measure"),
    ("kms", "lyubich"),
    ("kms", "lyubich_invariance_residual"),
    ("kms", "check_K1"),
    ("kms", "check_K2"),
    ("ifs", "kms_measure_ifs"),
    ("ifs", "check_K1_ifs"),
    ("ifs", "distinct_images"),
    ("ifs", "hutchinson"),
    ("serialize", "stable_dumps"),
    ("cli", "main"),
]
LAYERS = list(dict.fromkeys(layer for layer, _ in TARGETS))
FUNCS = [f"{layer}.{path.rsplit('.', 1)[-1]}" for layer, path in TARGETS]
PASS_SPAN = "bench.pass"


def _arg(args, kwargs, pos, key):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key)


def _measure_atoms(args, kwargs):
    return _arg(args, kwargs, 1, "mu").n_atoms


# Per-function probes: (args, kwargs, result) -> (tag, {count name: value}).
PROBES = {
    "polyroots.roots": lambda a, k, r: (_arg(a, k, 0, "p").degree, None),
    "ratmap.backward_orbit": lambda a, k, r: (
        0, {"levels": r.depth, "atoms_out": r.atom_count()}),
    "projective.merge_weighted": lambda a, k, r: (
        0, {"atoms_in": len(_arg(a, k, 0, "pairs")), "atoms_out": len(r)}),
    "measure.merge_planar": lambda a, k, r: (
        0, {"atoms_in": len(_arg(a, k, 1, "weights")), "atoms_out": len(r[1])}),
    "kms.kms_measure": lambda a, k, r: (0, {"atoms_out": r.measure.n_atoms}),
    "kms.lyubich": lambda a, k, r: (0, {"atoms_out": r.n_atoms}),
    "kms.lyubich_invariance_residual": lambda a, k, r: (0, {"atoms": _measure_atoms(a, k)}),
    "kms.check_K1": lambda a, k, r: (0, {"atoms": _measure_atoms(a, k)}),
    "kms.check_K2": lambda a, k, r: (0, {"atoms": _measure_atoms(a, k)}),
    "ifs.kms_measure_ifs": lambda a, k, r: (0, {"atoms_out": r.measure.n_atoms}),
    "ifs.check_K1_ifs": lambda a, k, r: (0, {"atoms": _measure_atoms(a, k)}),
    "ifs.hutchinson": lambda a, k, r: (_arg(a, k, 2, "chaos_samples") or 0, None),
    "serialize.stable_dumps": lambda a, k, r: (0, {"bytes": len(r)}),
}


def _owner_and_attr(layer, path):
    obj = importlib.import_module(f"kmsdyn.{layer}")
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1]


def _kmsdyn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kmsdyn" or name.startswith("kmsdyn."))]


@contextlib.contextmanager
def rebound(replacements):
    """Rebind each original function to its replacement everywhere in kmsdyn.

    ``replacements`` maps (layer, path) to a factory taking the original
    function and returning its replacement.  Module attributes are found by
    identity, so every ``from .x import f`` copy is covered.
    """
    # import every layer first, so a module imported later cannot keep a
    # copy of an original binding
    resolved = [(_owner_and_attr(*target), factory) for target, factory in replacements.items()]
    undo = []
    try:
        for (owner, attr), factory in resolved:
            original = vars(owner)[attr]
            new = factory(original)
            if isinstance(owner, type):
                setattr(owner, attr, new)
                undo.append((owner, attr, original))
                continue
            for mod in _kmsdyn_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, new)
                        undo.append((mod, name, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """Spans kept in flat arrays, plus per-function counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.tag = array("q")
        self.counts: dict[tuple[str, str], int] = {}
        self._stack = [-1]

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name):
        """A span recorded by the benchmark itself (one per pass)."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.tag.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, func_name, original):
        nid = self._id(func_name)
        probe = PROBES.get(func_name)
        counts = self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(i)
            if probe is not None:
                tag, extra = probe(args, kwargs, result)
                self.tag[i] = tag
                if extra:
                    for key, value in extra.items():
                        counts[func_name, key] = counts.get((func_name, key), 0) + value
            return result

        return traced

    def installed(self):
        """Context in which every function in TARGETS records spans."""
        return rebound({
            target: functools.partial(self._wrap, fname)
            for target, fname in zip(TARGETS, FUNCS)
        })

    def arrays(self):
        n = len(self.start)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64, count=n).copy(),
        }

    def save(self, path, env):
        """Write every span, the name table and the run environment (.npz)."""
        np.savez_compressed(path, names=np.array(self.names), env=np.array(json.dumps(env)),
                            **self.arrays())


class SpanTable:
    """Derived per-span quantities: duration, self time, ancestry queries."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.counts = tracer.counts
        self.name, self.start, self.end = a["name"], a["start"], a["end"]
        self.parent, self.tag = a["parent"], a["tag"]
        self.dur = self.end - self.start
        child = self.parent >= 0
        # spans come from a call stack, so siblings are disjoint and the
        # union of a span's children is the sum of their durations
        child_ns = np.bincount(self.parent[child], weights=self.dur[child],
                               minlength=len(self.dur))
        self.self_ns = self.dur - child_ns

    def ids(self, *names):
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, *names):
        return np.isin(self.name, self.ids(*names))

    def under(self, *names):
        """Spans with an ancestor named in ``names``."""
        flag = self.mask(*names)
        hit = np.zeros(len(self.dur), dtype=bool)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            hit[live] |= flag[anc[live]]
            anc[live] = self.parent[anc[live]]
        return hit

    def covered_ns(self, *names):
        """Wall time inside spans named in ``names``, nested ones counted once."""
        outer = self.mask(*names) & ~self.under(*names)
        return float(self.dur[outer].sum())

    def check_nesting(self):
        """Problems with the span tree: children outside parents, overlapping
        siblings, negative self time.  Empty when the tree is well formed."""
        problems = []
        child = np.nonzero(self.parent >= 0)[0]
        p = self.parent[child]
        bad = (self.start[child] < self.start[p]) | (self.end[child] > self.end[p])
        if bad.any():
            problems.append(f"{int(bad.sum())} child spans lie outside their parent")
        order = child[np.lexsort((self.start[child], self.parent[child]))]
        same = self.parent[order[1:]] == self.parent[order[:-1]]
        overlap = same & (self.start[order[1:]] < self.end[order[:-1]])
        if overlap.any():
            problems.append(f"{int(overlap.sum())} sibling spans overlap")
        if (self.self_ns < 0).any():
            problems.append(f"{int((self.self_ns < 0).sum())} spans have negative self time")
        return problems
