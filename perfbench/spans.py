"""Spans around liecoh's public calls, for the benchmark's traced run.

The tracer replaces public functions by timing wrappers wherever liecoh's
own modules refer to them, so calls made inside the library are caught
too.  A linalg function is replaced only where other modules import it
(liecoh.ce.rank, liecoh.pairs.Subspace.span, ...), which counts the
elimination work each layer asks for.  A name that no longer exists is
reported as absent rather than failing the run, so the library can delete
functions without breaking the benchmark.

Each span is [name, start, end, parent index, op id].  Spans stay in
memory; the caller writes them out once at the end.
"""

import sys
import time
from contextlib import contextmanager
from math import comb

# (module, function): replaced everywhere liecoh refers to it
LAYER_CALLS = [
    ("catalog", "build"),
    ("liealg", "validate"),
    ("pairs", "validate_pair"),
    ("pairs", "decompose"),
    ("invariant_forms", "psi_analysis"),
    ("invariant_forms", "minimal_ideal_count"),
    ("betti", "corollary_checks"),
    ("betti", "betti_low"),
    ("koszul", "build_complex"),
    ("koszul", "betti_koszul"),
    ("ce", "relative_complex"),
    ("ce", "betti_ce"),
]

# replaced only where a module other than linalg imports them
LINALG_CALLS = ["rank", "kernel_basis", "solve_many", "solve_in_span",
                "intersect_kernels", "inverse"]
LINALG_METHODS = [("Subspace", "span")]


def _count_complex(tracer, cx):
    dims = getattr(cx, "dims", None)
    q = getattr(cx, "quotient_dim", None)
    if dims is None or q is None:
        return
    tracer.counts["ce.wedge_dim_sum"] += sum(comb(q, k) for k in range(len(dims)))
    tracer.counts["ce.cochain_dim_sum"] += sum(dims)


def _count_slices(tracer, slices):
    tracer.counts["koszul.slice_dim_sum"] += sum(
        getattr(s, "total_dim", 0) for s in slices)


AFTER = {"ce.relative_complex": _count_complex,
         "koszul.build_complex": _count_slices}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {"ce.wedge_dim_sum": 0, "ce.cochain_dim_sum": 0,
                       "koszul.slice_dim_sum": 0}
        self.op = None
        self.absent = []
        self._stack = []
        self._patches = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result)
            return result
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced call in the loaded liecoh modules."""
        self.absent = []
        mods = {name[len("liecoh."):]: mod for name, mod in sys.modules.items()
                if name.startswith("liecoh.") and mod is not None}
        targets = [(home, fn, True) for home, fn in LAYER_CALLS]
        targets += [("linalg", fn, False) for fn in LINALG_CALLS]
        for home, fn, patch_home in targets:
            name = "%s.%s" % (home, fn)
            orig = getattr(mods.get(home), fn, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, orig)
            for mname, mod in mods.items():
                if (patch_home or mname != home) and \
                        mod.__dict__.get(fn) is orig:
                    self._patch(mod, fn, wrapper)
        for cls_name, meth in LINALG_METHODS:
            name = "linalg.%s.%s" % (cls_name, meth)
            cls = getattr(mods.get("linalg"), cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(meth)
            if not isinstance(raw, classmethod):
                self.absent.append(name)
                continue
            self._patch(cls, meth, classmethod(self.wrap(name, raw.__func__)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries ------------------------------------------------------------

    def _child_time(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def busy(self):
        """name -> (calls, inclusive seconds)."""
        out = {}
        for name, start, end, _, _ in self.spans:
            calls, busy = out.get(name, (0, 0.0))
            out[name] = (calls + 1, busy + end - start)
        return out

    def self_times(self):
        """name -> seconds inside the span but outside its child spans."""
        child = self._child_time()
        out = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[idx]
        return out

    def top_coverage(self, root):
        """Smallest share of a root span's time that its children cover."""
        child = self._child_time()
        shares = [child[idx] / (end - start)
                  for idx, (name, start, end, _, _) in enumerate(self.spans)
                  if name == root and end > start]
        return min(shares) if shares else 0.0
