"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public entry points listed in ``ENTRY_POINTS``
with wrappers: methods are patched on their class, and a module-level function
is patched in every loaded ``tiltbench`` module that holds it by name (for
example ``tilting`` and ``complex_decomp`` each imported their own
``minimize``).  Only the traced
benchmark process calls ``install()``; timed runs never do.

A wrapper records a span (name, start, end, parent) while the tracer is
enabled, and does nothing but forward the call while it is disabled.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the durations of its direct child spans.  Entry points marked ``count`` are
called too often to afford a span; they only count calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name, kind)
ENTRY_POINTS = [
    ("linalg", "Matrix.__init__", "linalg.Matrix_init", "count"),
    ("linalg", "Matrix.rref", "linalg.rref", "span"),
    ("linalg", "Matrix.solve", "linalg.solve", "span"),
    ("complexes", "HomotopySpace.__init__", "complexes.HomotopySpace.init", "span"),
    ("complexes", "HomotopySpace.reduce", "complexes.HomotopySpace.reduce", "span"),
    ("complexes", "minimize", "complexes.minimize", "span"),
    ("decompose", "FiniteDimAlgebra.left_matrix", "decompose.FiniteDimAlgebra.left_matrix", "count"),
    ("decompose", "FiniteDimAlgebra.radical_rows", "decompose.FiniteDimAlgebra.radical_rows", "span"),
    ("decompose", "EndAlgebra.mul", "decompose.EndAlgebra.mul", "count"),
    ("decompose", "decompose", "decompose.decompose", "span"),
    ("decompose", "is_isomorphic", "decompose.is_isomorphic", "span"),
    ("polys", "rational_roots", "polys.rational_roots", "span"),
    ("presentation", "radical_chain", "presentation.radical_chain", "span"),
    ("presentation", "quiver_presentation", "presentation.quiver_presentation", "span"),
    ("complex_decomp", "ChainEndData.mul", "complex_decomp.ChainEndData.mul", "count"),
    ("complex_decomp", "decompose_complex", "complex_decomp.decompose_complex", "span"),
    ("reps", "hom_space", "reps.hom_space", "span"),
    ("reps", "map_coordinates", "reps.map_coordinates", "span"),
    ("approx", "minimal_right_approximation_labeled", "approx.minimal_right_approximation_labeled", "span"),
    ("approx", "minimal_left_approximation_labeled", "approx.minimal_left_approximation_labeled", "span"),
    ("tilting", "maximal_nu_stable", "tilting.maximal_nu_stable", "span"),
    ("tilting", "verify_tilting", "tilting.verify_tilting", "span"),
    ("tilting", "construct_tpq", "tilting.construct_tpq", "span"),
    ("tilting", "TiltingContext.end_data", "tilting.end_data", "span"),
    ("tilting", "TiltingContext.f_homology", "tilting.f_homology", "span"),
    ("serialize", "load_algebra", "serialize.load", "span"),
    ("serialize", "load_complex", "serialize.load", "span"),
    ("serialize", "load_module", "serialize.load", "span"),
    ("serialize", "dumps", "serialize.dumps", "span"),
    ("cli", "main", "cli.main", "span"),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.open = []  # indices of spans not yet ended
        self.calls = {}
        self.rref_cells = 0

    def install(self):
        """Wrap every entry point; the wrappers stay disabled until enable()."""
        modules = {m: importlib.import_module(f"tiltbench.{m}") for m, _, _, _ in ENTRY_POINTS}
        for module_name, attr, name, kind in ENTRY_POINTS:
            module = modules[module_name]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self._wrap(getattr(owner, method), name, kind))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, kind)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tiltbench" or mod_name.startswith("tiltbench."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn, name, kind):
        tracer = self
        count_cells = name == "linalg.rref"

        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.calls[name] = tracer.calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if count_cells:
                tracer.rref_cells += args[0].rows * args[0].cols
            record = [name, 0.0, 0.0, tracer.open[-1] if tracer.open else -1]
            tracer.open.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.open.pop()

        return spanned

    def self_times(self):
        """Span name -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - children
        return out

    def root_time(self, start, end):
        """Summed duration of the top-level spans that began in [start, end)."""
        return sum(e - s for _, s, e, parent in self.spans if parent < 0 and start <= s < end)

    def layer_metrics(self, names):
        """Value of each metric ``<span name>.<calls|cells|self_s>`` in names;
        ``trace.*`` metrics are left to the caller, which holds the untraced
        pass time they need."""
        self_s = self.self_times()
        out = {}
        for metric in names:
            span, _, stat = metric.rpartition(".")
            if span == "trace":
                continue
            if stat == "calls":
                out[metric] = self.calls.get(span, 0)
            elif stat == "cells":
                out[metric] = self.rref_cells
            else:
                out[metric] = self_s.get(span, 0.0)
        return out
