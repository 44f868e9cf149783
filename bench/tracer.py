"""Span tracing from outside the program.

The tracer replaces each listed function at every module-level binding
in adaptcoord.* (the defining module, every module that imported the
name, and the package namespace), so calls between modules are traced
too.  Spans (name, start, end, parent) stay in memory until the run
writes them out.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

from adaptcoord.oscillatory import DEFAULT_RADIUS, default_grid_size

# (module, function) pairs that get a span; names are "module.function"
TRACED = (
    ("unipoly", "split_rational_roots"),
    ("unipoly", "squarefree_decompose"),
    ("unipoly", "isolate_real_roots"),
    ("bipoly", "apply_shear"),
    ("bipoly", "squarefree_part_x2"),
    ("bipoly", "swap_axes"),
    ("parsing", "parse"),
    ("newton", "build_polyhedron"),
    ("newton", "distance"),
    ("newton", "principal_face"),
    ("newton", "principal_part"),
    ("quasihomog", "analyze"),
    ("adapt", "check_adapted"),
    ("adapt", "adapt"),
    ("adapt", "shear_step"),
    ("clusters", "top_clusters"),
    ("oscillatory", "estimate_integral"),
    ("oscillatory", "fit_decay"),
    ("report", "build_report"),
    ("svgdiagram", "render_svg"),
    ("cli", "main"),
)


def _coeff_bits(p) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for c in p.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.paused = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _record_extra(self, name: str, args, kwargs, result) -> None:
        c = self.counters
        if name == "unipoly.split_rational_roots":
            c["unipoly.split_rational_roots.max_coeff_bits"] = max(
                c["unipoly.split_rational_roots.max_coeff_bits"], _coeff_bits(args[0])
            )
        elif name == "bipoly.apply_shear":
            c["bipoly.apply_shear.terms_out"] += len(result.terms())
        elif name == "adapt.adapt":
            c["adapt.shear_steps"] += len(result.steps)
        elif name == "oscillatory.estimate_integral":
            f, lam = args[0], args[1]
            radius = args[2] if len(args) > 2 else kwargs.get("radius", DEFAULT_RADIUS)
            grid_n = args[3] if len(args) > 3 else kwargs.get("grid_n")
            if grid_n is None:
                grid_n = default_grid_size(f, lam, radius)
            c["oscillatory.estimate_integral.cells"] += grid_n * grid_n

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            tracer._record_extra(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        # the package namespace skips the cli module; load it so its
        # bindings are patched as well
        importlib.import_module("adaptcoord.cli")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "adaptcoord" or key.startswith("adaptcoord."))
        ]
        for mod_name, fn_name in TRACED:
            home = sys.modules[f"adaptcoord.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ns and self_ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")

