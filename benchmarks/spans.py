"""Span tracing of gfc from outside the package.

gfc modules import their collaborators by name (``from .coagulation import
apply_coag``), so a call is intercepted by rebinding that name in every gfc
module that holds the original object.  `patched` does the rebinding and
restores every name on exit; nothing under ``src/`` changes.

A `Tracer` keeps its spans in memory as ``[name, start, end, parent]`` rows
(parent is the index of the enclosing span, -1 for a root) and computes self
time as a span's duration minus the durations of its direct children.  Calls
are single threaded and properly nested, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

LAYERS = ("config", "kernels", "grid", "transport", "fragmentation", "coagulation",
          "evolution", "moment_bounds", "report", "cli")


def _gfc_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gfc" or name.startswith("gfc."))]


@contextlib.contextmanager
def patched(replacements: dict[tuple[str, str], Callable]) -> Iterator[None]:
    """Rebind ``(module, name)`` originals to replacements in every gfc module.

    Each key names the defining module and attribute; every gfc module whose
    namespace holds that same object gets the replacement, so calls through
    ``from ... import`` names and through module attributes are both caught.
    """
    undo = []
    try:
        for (modname, attr), new in replacements.items():
            original = getattr(sys.modules[modname], attr)
            for mod in _gfc_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, new)
        yield
    finally:
        for mod, key, value in reversed(undo):
            setattr(mod, key, value)


@contextlib.contextmanager
def patched_suites(wrap: Callable[[str, Callable], Callable]) -> Iterator[None]:
    """Replace every entry of ``gfc.report.SUITES`` by ``wrap(name, suite)``."""
    suites = sys.modules["gfc.report"].SUITES
    saved = dict(suites)
    try:
        for name, fn in saved.items():
            suites[name] = wrap(name, fn)
        yield
    finally:
        suites.clear()
        suites.update(saved)


def _table_read_bytes(ct) -> int:
    """Bytes of the pair tables one `apply_coag` call reads (from array sizes)."""
    return int(sum(a.nbytes for a in (ct.kernel, ct.idx_lo, ct.w_lo, ct.idx_hi,
                                      ct.w_hi, ct.esc_coeff)))


def _solve_key(f0, cfg, ks) -> str:
    """Digest of everything a `solve` result depends on."""
    h = hashlib.sha256(np.ascontiguousarray(f0.values).tobytes())
    with np.printoptions(threshold=sys.maxsize, precision=17):
        h.update(repr((f0.escaped_mass, f0.grid.xmin, f0.grid.xmax, f0.grid.cells,
                       cfg, ks)).encode())
    return h.hexdigest()


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._solve_keys: set[str] = set()

    # -- recording --------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks --------------------------------------------------------------
    def _after_tables(self, args, kwargs, ct) -> None:
        self.counts["coagulation.table_bytes"] += int(sum(
            a.nbytes for a in (ct.kernel, ct.idx_lo, ct.w_lo, ct.idx_hi, ct.w_hi,
                               ct.esc_coeff, ct.interior)))

    def _after_coag(self, args, kwargs, out) -> None:
        ct = args[1] if len(args) > 1 else kwargs["ct"]
        self.counts["coagulation.apply_coag.bytes_computed"] += _table_read_bytes(ct)

    def _after_solve(self, args, kwargs, out) -> None:
        names = ("f0", "cfg", "ks")
        f0, cfg, ks = (args[i] if len(args) > i else kwargs[n] for i, n in enumerate(names))
        key = _solve_key(f0, cfg, ks)
        if key in self._solve_keys:
            self.counts["evolution.solve.identical_inputs"] += 1
        self._solve_keys.add(key)

    def _after_duhamel(self, args, kwargs, out) -> None:
        self.counts["evolution.picard_iterations"] += int(out[1].iterations)

    def _after_csv(self, args, kwargs, path) -> None:
        self.counts["cli.write_trajectory_csv.bytes"] += Path(path).stat().st_size

    def _wrap_suite(self, name: str, fn: Callable) -> Callable:
        def after(args, kwargs, rows) -> None:
            self.counts["report.checks"] += len(rows)
            self.counts["report.checks_failed"] += sum(not r.passed for r in rows)
        return self.wrap(f"report.suite.{name}", fn, after)

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the layer entry points for the duration of the block."""
        entries = [
            ("gfc.config", "load_scenario", None), ("gfc.kernels", "validate_kernel_set", None),
            ("gfc.grid", "moment", None), ("gfc.grid", "weighted_integral", None),
            ("gfc.transport", "transport_apply", None),
            ("gfc.transport", "make_antiderivatives", None),
            ("gfc.fragmentation", "build_daughter_matrix", None),
            ("gfc.fragmentation", "daughter_gain", None), ("gfc.fragmentation", "apply_frag", None),
            ("gfc.coagulation", "build_coag_tables", self._after_tables),
            ("gfc.coagulation", "apply_coag", self._after_coag),
            ("gfc.coagulation", "apply_coag_beta", None),
            ("gfc.evolution", "solve", self._after_solve),
            ("gfc.evolution", "duhamel_solve", self._after_duhamel),
            ("gfc.moment_bounds", "global_conditions", None),
            ("gfc.moment_bounds", "assemble_bound_params", None),
            ("gfc.moment_bounds", "bound_system", None),
            ("gfc.moment_bounds", "check_domination", None),
            ("gfc.report", "run_suites", None), ("gfc.cli", "main", None),
        ]
        targets = {(mod, attr): self.wrap(f"{mod[4:]}.{attr}", getattr(sys.modules[mod], attr), after)
                   for mod, attr, after in entries}
        # the CSV writer lives in report but is the CLI's output step
        targets[("gfc.report", "write_trajectory_csv")] = self.wrap(
            "cli.write_trajectory_csv", sys.modules["gfc.report"].write_trajectory_csv,
            self._after_csv)
        targets[("gfc.transport", "PchipInterpolator")] = self.count(
            "transport.pchip_builds", sys.modules["gfc.transport"].PchipInterpolator)
        with patched(targets), patched_suites(self._wrap_suite):
            yield

    # -- results ------------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
