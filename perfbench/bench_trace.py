"""In-memory span tracer and the layer wrappers of the traced run.

The tracer measures each layer from outside the library: it replaces a
public function at the name its caller looks it up by (a module attribute
or a class attribute), records one span per call, and restores the
original on exit.  Nothing under ``src/`` changes.

Spans live in compact column arrays until the run ends; each carries its
parent span, the operation (trace id) it belongs to and the workload.  Self
time (duration minus the time covered by child spans) is accumulated as
spans close, so per-layer numbers need no post-processing.  The tracer
keeps one span stack and assumes one thread, which holds while
``DIOPH_LAB_THREADS`` is at its default of 1.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.workloads: list[str] = []
        self.parent = array("i")
        self.trace_id = array("i")
        self.name_id = array("H")
        self.workload_id = array("B")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._trace = -1
        self._workload = 0
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: (name, args) of calls whose work counts are derived after the run
        self.records: list[tuple[str, tuple]] = []

    def set_workload(self, workload: str) -> None:
        if workload not in self.workloads:
            self.workloads.append(workload)
        self._workload = self.workloads.index(workload)

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, new_trace: bool = False) -> int:
        if new_trace:
            self._trace += 1
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trace_id.append(self._trace)
        self.name_id.append(self._name(name))
        self.workload_id.append(self._workload)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(_clock())
        return idx

    def close(self, idx: int, rename: str | None = None) -> None:
        now = _clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = now
        covered = self._child.pop()
        dur = now - self.start[idx]
        if self._child:
            self._child[-1] += dur
        if rename is not None:
            self.name_id[idx] = self._name(rename)
        name = self.names[self.name_id[idx]]
        self.total[name] += dur
        self.self_time[name] += dur - covered
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        idx = self.open(name, new_trace)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, on_result=None):
        """A stand-in for fn that records one span per call.

        on_result(args, kwargs, result) may return a new span name, e.g. to
        tell the exact integral path from the fast one by its result.
        """
        def traced(*args, **kwargs):
            idx = self.open(name)
            rename = None
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    rename = on_result(args, kwargs, result)
                return result
            finally:
                self.close(idx, rename)
        traced.__wrapped__ = fn
        return traced

    def reset_aggregates(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        self.records.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace_id=np.frombuffer(self.trace_id, dtype=np.int32),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            workload_id=np.frombuffer(self.workload_id, dtype=np.uint8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
            workloads=np.array(self.workloads),
        )


@contextmanager
def patched(lib, tracer: Tracer):
    """Install the layer wrappers on the library modules in lib, then undo."""
    harness, counting, cli = lib.harness, lib.counting, lib.cli
    table_cls, poly_cls = lib.arith.ArithTable, lib.fourier.VaalerPolynomial

    def integral_kind(args, kwargs, result):
        a, b, cfg, n = args[:4]
        path = "exact" if isinstance(result, Fraction) else "fast"
        tracer.records.append((f"counting.{path}", (a, b, cfg, n)))
        return f"counting.{path}"

    def frac_elements(args, kwargs, result):
        tracer.counts["fourier.frac_multiples.elements"] += result.size

    def scan_segments(args, kwargs, result):
        tracer.counts["counting.segments"] += result[1]

    def witnesses(args, kwargs, result):
        tracer.counts["counting.witnesses"] += result[0]
        tracer.records.append(("counting.count_witnesses", (args[2],)))

    def sieve_call(args, kwargs, result):
        tracer.records.append(("counting.sieve_error_sum", (args[1], args[2])))

    def csv_bytes(args, kwargs, result):
        tracer.records.append(("cli.write_csv", (args[0],)))

    targets = [
        (harness, "lower_bound_check", "harness.lower_bound_check", None),
        (harness, "map_ordered", "parallel.map_ordered", None),
        (harness, "witness_integral", "counting.integral", integral_kind),
        (harness, "bound_audit", "harness.bound_audit", None),
        (harness, "frac_multiples", "fourier.frac_multiples", frac_elements),
        (harness, "b_array", "vaughan.b_array", None),
        (poly_cls, "psi_star", "fourier.psi_star", None),
        (table_cls, "primes_between", "arith.primes_between", None),
        (table_cls, "von_mangoldt_range", "arith.von_mangoldt_range", None),
        (counting, "riemann_scan", "counting.riemann_scan", scan_segments),
        (counting, "count_witnesses", "counting.count_witnesses", witnesses),
        (counting, "sieve_error_sum", "counting.sieve_error_sum", sieve_call),
        (cli, "write_csv", "cli.write_csv", csv_bytes),
    ]
    saved = []
    try:
        for owner, attr, name, hook in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
