"""Spans around every call into a layer of the package, and the per-layer
metrics computed from them.

The layers are the package modules.  While a Tracer is installed, every
public function of a layer (a name in the module's ``__all__``) is
replaced, in the namespace of each package module that refers to it, by
a wrapper that records one span: name, start, end, parent span and the
workload call it belongs to.  Calls between layers inside the package
therefore nest, and a layer's self time is its spans' time minus the
time of their child spans.  Nothing in the package changes; the wrappers
are removed when the Tracer is uninstalled.  Spans stay in memory until
write() is called.

Some counts are taken at the same boundaries from the call's arguments
and result (COUNTERS).  They are computed from array sizes, not
measured traffic.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "spintransfer"


def _amplitude_counts(args, kwargs, result):
    # One phase per (eigenvalue, tau) pair; the phase and amplitude
    # arrays are both complex (N, K).
    return {"dynamics.phase_evals": result.size, "dynamics.bytes": 2 * result.nbytes}


def _sweep_counts(args, kwargs, result):
    return {"search.points": len(result.grid), "search.hpst_points": int(result.hpst.sum())}


def _peaks_counts(args, kwargs, result):
    return {"search.points": 1, "search.hpst_points": int(result[1] is not None)}


def _cli_counts(args, kwargs, result):
    argv = list(args[0] if args else kwargs["argv"])
    if "--out" not in argv:
        return {}
    return {"cli.csv_bytes": os.path.getsize(argv[argv.index("--out") + 1])}


COUNTERS = {
    "dynamics.amplitude_grid": _amplitude_counts,
    "search.sweep1d": _sweep_counts,
    "search.sweep2d": _sweep_counts,
    "search.hpst_times": _peaks_counts,
    "cli.main": _cli_counts,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, call id)
        self.counts = Counter()
        self.call_id = 0
        self._stack = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.call_id)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and mod.__name__ != PACKAGE:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        saved = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        try:
            yield self
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, call."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Per-layer metrics: name -> unit.  Times are seconds of self time unless
# the name says otherwise (see layer_metrics).
PER_LAYER = {
    "geometry.time_s": "s",
    "geometry.calls": "count",
    "hamiltonian.build_D_s": "s",
    "hamiltonian.eigh_s": "s",
    "hamiltonian.eigh_calls": "count",
    "dynamics.time_s": "s",
    "dynamics.calls": "count",
    "dynamics.phase_evals": "count",
    "dynamics.bytes": "B",
    "dynamics.phase_evals_per_s": "1/s",
    "search.self_s": "s",
    "search.points": "count",
    "search.hpst_points": "count",
    "search.fn_s": "s",
    "search.peaks_s": "s",
    "entanglement.closed_s": "s",
    "entanglement.oracle_s": "s",
    "closedforms.time_s": "s",
    "verify.closed_forms_s": "s",
    "verify.concurrence_s": "s",
    "verify.negativity_s": "s",
    "verify.spectra_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _durations(spans) -> tuple:
    """Whole and self time of each span."""
    dur = [end - start for _, start, end, _, _ in spans]
    own = list(dur)
    for d, (_, _, _, parent, _) in zip(dur, spans):
        if parent >= 0:
            own[parent] -= d
    return dur, own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, all PER_LAYER names but
    trace.overhead_s.

    <layer>.time_s and <layer>.self_s are the layer's self time;
    <layer>.calls counts the calls that enter the layer from outside it.
    hamiltonian.build_D_s, hamiltonian.eigh_s (diagonalize),
    search.peaks_s (hpst_times) and entanglement.closed_s / oracle_s are
    self times of those functions; search.fn_s and the verify.*_s suites
    are whole-call times, children included.
    """
    spans = tracer.spans
    dur, own = _durations(spans)
    self_by_fn = defaultdict(float)
    whole_by_fn = defaultdict(float)
    self_by_layer = defaultdict(float)
    calls_into = Counter()
    for i, (name, _, _, parent, _) in enumerate(spans):
        layer = name.partition(".")[0]
        self_by_fn[name] += own[i]
        whole_by_fn[name] += dur[i]
        self_by_layer[layer] += own[i]
        if parent < 0 or spans[parent][0].partition(".")[0] != layer:
            calls_into[layer] += 1

    def fns(*names):
        return sum(self_by_fn[f] for f in names)

    dyn = self_by_layer["dynamics"]
    phases = tracer.counts["dynamics.phase_evals"]
    return {
        "geometry.time_s": self_by_layer["geometry"],
        "geometry.calls": calls_into["geometry"],
        "hamiltonian.build_D_s": fns("hamiltonian.build_D"),
        "hamiltonian.eigh_s": fns("hamiltonian.diagonalize"),
        "hamiltonian.eigh_calls": sum(1 for s in spans if s[0] == "hamiltonian.diagonalize"),
        "dynamics.time_s": dyn,
        "dynamics.calls": calls_into["dynamics"],
        "dynamics.phase_evals": phases,
        "dynamics.bytes": tracer.counts["dynamics.bytes"],
        "dynamics.phase_evals_per_s": phases / dyn if dyn > 0 else 0.0,
        "search.self_s": self_by_layer["search"],
        "search.points": tracer.counts["search.points"],
        "search.hpst_points": tracer.counts["search.hpst_points"],
        "search.fn_s": whole_by_fn["search.fn_value"],
        "search.peaks_s": fns("search.hpst_times"),
        "entanglement.closed_s": fns("entanglement.concurrence", "entanglement.negativity",
                                     "entanglement.sigma"),
        "entanglement.oracle_s": fns("entanglement.concurrence_oracle",
                                     "entanglement.negativity_oracle"),
        "closedforms.time_s": self_by_layer["closedforms"],
        "verify.closed_forms_s": whole_by_fn["verify.suite_closed_forms"],
        "verify.concurrence_s": whole_by_fn["verify.suite_concurrence"],
        "verify.negativity_s": whole_by_fn["verify.suite_negativity"],
        "verify.spectra_s": whole_by_fn["verify.suite_spectra"],
        "cli.self_s": self_by_layer["cli"],
        "cli.csv_bytes": tracer.counts["cli.csv_bytes"],
        "trace.spans": len(spans),
    }


def layer_shares(tracer: Tracer, wall: float) -> dict:
    """Self time of each layer as a share of the traced pass's wall time."""
    _, own = _durations(tracer.spans)
    totals = defaultdict(float)
    for (name, *_), t in zip(tracer.spans, own):
        totals[name.partition(".")[0]] += t
    return {layer: t / wall for layer, t in sorted(totals.items())}
