"""Timing spans recorded around calls into qeclab's layers.

The benchmark wraps the public names listed in ``SPANS`` wherever a qeclab
module holds them: ``from .codes import check_knill_laflamme`` binds the
function in ``qeclab.search`` too, and a wrapper installed only in
``qeclab.codes`` would miss those calls. Classes are traced by wrapping their
``__init__``, so every construction is seen whichever module makes it.

Spans stay in memory as ``[id, parent, request, name, start_ns, end_ns]``
and are written out once, after the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("states", "circuits", "codes", "iontrap", "noise", "search", "cli")

SPANS = (
    "cli.main",
    "circuits.parse_circuit",
    "circuits.apply_circuit",
    "circuits.circuit_to_unitary",
    "codes.check_knill_laflamme",
    "codes.apply_error",
    "codes.build_syndrome_table",
    "codes.decode_and_correct",
    "iontrap.compile_circuit",
    "iontrap.simulate_pulse_sequence",
    "iontrap.verify_compilation",
    "iontrap.pulses_from_json",
    "noise.mc_coherence",
    "noise.scheme_coherence",
    "noise.figure5_data",
    "search.search",
    "search.mutate",
    "search.is_valid_perfect_code",
    "search.pulse_cost",
    "states.PureState",
    "states.DensityMatrix",
    "states.apply_gate",
    "states.measure_qubits",
)

# Per-layer metrics beyond each span's .calls, .total_s and .self_s.
DERIVED_UNITS = {
    "noise.mc.trajectories": "count",
    "noise.mc.traj_per_self_s": "1/s",
    "search.valid_fraction": "fraction",
    "search.best_cost": "pulses",
    "iontrap.sim.column_pulses": "count",
    "iontrap.sim.kernel_bytes_computed": "bytes",
    "trace.overhead_frac": "fraction",
}
UNITS = {f"{span}.{part}": unit for span in SPANS
         for part, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))}
UNITS.update(DERIVED_UNITS)

COMPLEX_BYTES = 16


class Tracer:
    """Records nested spans from one thread and the counters observed at them."""

    def __init__(self):
        self.spans = []
        self.request = 0
        self.counters = {
            "noise.mc.trajectories": 0,
            "search.validity_checks": 0,
            "search.valid_verdicts": 0,
            "iontrap.sim.column_pulses": 0,
            "iontrap.sim.kernel_bytes_computed": 0,
        }
        self._stack = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, self.request, name, 0, 0]
            spans.append(record)
            stack.append(record[0])
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _argument(fn, name):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]


def _observers(modules) -> dict:
    """Counters taken at span boundaries, keyed by span name."""
    def mc(counters, args, kwargs, result):
        counters["noise.mc.trajectories"] += int(shots(args, kwargs))

    def validity(counters, args, kwargs, result):
        counters["search.validity_checks"] += 1
        counters["search.valid_verdicts"] += int(bool(result))

    def pulse_sim(counters, args, kwargs, result):
        # Column pulses: every pulse acts on all 2**n basis columns. The bytes
        # are computed from sizes, not measured: one pass over the
        # (2 * 3**n) x 2**n complex column block per pulse.
        n = int(sim_ions(args, kwargs))
        pulses = len(sim_seq(args, kwargs))
        counters["iontrap.sim.column_pulses"] += pulses * 2**n
        counters["iontrap.sim.kernel_bytes_computed"] += pulses * 2 * 3**n * 2**n * COMPLEX_BYTES

    observers = {"search.is_valid_perfect_code": validity}
    if hasattr(modules["noise"], "mc_coherence"):
        shots = _argument(modules["noise"].mc_coherence, "shots")
        observers["noise.mc_coherence"] = mc
    if hasattr(modules["iontrap"], "simulate_pulse_sequence"):
        sim_seq = _argument(modules["iontrap"].simulate_pulse_sequence, "seq")
        sim_ions = _argument(modules["iontrap"].simulate_pulse_sequence, "n_ions")
        observers["iontrap.simulate_pulse_sequence"] = pulse_sim
    return observers


def install(tracer: Tracer):
    """Wrap every name in ``SPANS`` that the program still has (a name it no
    longer defines reads 0 calls); returns the (owner, attr, original) list
    that ``uninstall`` needs."""
    package = importlib.import_module("qeclab")
    modules = {layer: importlib.import_module(f"qeclab.{layer}") for layer in LAYERS}
    holders = [package, *modules.values()]
    observers = _observers(modules)
    undo = []
    for name in SPANS:
        layer, attr = name.split(".")
        original = getattr(modules[layer], attr, None)
        if original is None:
            continue
        if inspect.isclass(original):
            init = original.__dict__["__init__"]
            original.__init__ = tracer.wrap(name, init)
            undo.append((original, "__init__", init))
            continue
        wrapper = tracer.wrap(name, original, observers.get(name))
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
    return undo


def uninstall(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# --- span arithmetic ---------------------------------------------------------------

def _covered_ns(start, end, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered, reach = 0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


def layer_times(spans) -> dict:
    """Per span name: calls, total time and self time, in seconds.

    Self time is a span's duration minus the part of it covered by its child
    spans. Total time counts only the outermost span of a name, so a name
    that nests inside itself is not counted twice.
    """
    by_id = {rec[0]: rec for rec in spans}
    children = {}
    for rec in spans:
        children.setdefault(rec[1], []).append((rec[4], rec[5]))
    out = {}
    for sid, parent, _, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["self_ns"] += (end - start) - _covered_ns(start, end, children.get(sid, ()))
        while parent != -1 and by_id[parent][3] != name:
            parent = by_id[parent][1]
        if parent == -1:
            row["total_ns"] += end - start
    return {name: {"calls": row["calls"], "total_s": row["total_ns"] / 1e9,
                   "self_s": row["self_ns"] / 1e9} for name, row in out.items()}


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """All per-layer metric values; names in ``SPANS`` that never ran read 0."""
    times = layer_times(tracer.spans)
    values = {}
    for name in SPANS:
        row = times.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.total_s"] = row["total_s"]
        values[f"{name}.self_s"] = row["self_s"]
    c = tracer.counters
    mc_self = values["noise.mc_coherence.self_s"]
    values["noise.mc.trajectories"] = c["noise.mc.trajectories"]
    values["noise.mc.traj_per_self_s"] = c["noise.mc.trajectories"] / mc_self if mc_self else 0.0
    checks = c["search.validity_checks"]
    values["search.valid_fraction"] = c["search.valid_verdicts"] / checks if checks else 0.0
    values["iontrap.sim.column_pulses"] = c["iontrap.sim.column_pulses"]
    values["iontrap.sim.kernel_bytes_computed"] = c["iontrap.sim.kernel_bytes_computed"]
    values.update(extra)
    return values
