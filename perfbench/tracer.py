"""Layer spans for gatesim, recorded from outside the package.

:meth:`Tracer.install` replaces every public function of the gatesim modules
with a timing wrapper, on every module attribute bound to it, so that names
imported with ``from .linalg import apply_local`` are traced as well as
``ham.raman_full_local``-style lookups.  ``numpy.linalg.eigh`` is wrapped too:
it is the spectral decomposition behind ``HermitianOperator.eig`` and the
local pulse propagators.

Spans are kept in memory as ``[name, parent, op, start, end, counts]`` and
written out at the end.  A span's self time is its duration minus the time
its children cover.  A few spans also carry exact work counts computed from
their arguments, which repeat identically for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "jsonio", "device", "hamiltonians", "pulses", "sequences", "linalg", "verify", "dj", "budget")

_COMPLEX_BYTES = 16


def _eigh_counts(bound) -> dict:
    dim = int(np.shape(bound.arguments["a"])[-1])
    return {"dim3_sum": dim**3, "max_dim": dim}


def _evolve_times_counts(bound) -> dict:
    dim = bound.arguments["state"].space.total_dim
    samples = len(bound.arguments["times"])
    return {"state_samples": samples, "macs_computed": (samples + 1) * dim * dim}


def _embed_counts(bound) -> dict:
    dim = bound.arguments["space"].total_dim
    return {"bytes_computed": _COMPLEX_BYTES * dim * dim}


# Counts derived from arguments (computed, not measured); max_dim is a maximum,
# every other count a sum.
ARG_COUNTERS = {
    "linalg.eigh": _eigh_counts,
    "linalg.evolve_times": _evolve_times_counts,
    "linalg.embed_hermitian": _embed_counts,
}
RESULT_COUNTERS = {"sequences.build_evolutions": lambda result: {"windows": len(result)}}
_MAX_COUNTS = {"max_dim"}

# The per-layer metrics a traced run reports (BENCHMARK.json lists the same),
# each per pass over the workload.  ``<layer>.all.self_s`` sums a module's self
# time; a name no call produced reads 0.
REPORTED = (
    "linalg.eigh.calls", "linalg.eigh.self_s", "linalg.eigh.max_dim", "linalg.eigh.dim3_sum",
    "linalg.embed_hermitian.calls", "linalg.embed_hermitian.self_s", "linalg.embed_hermitian.bytes_computed",
    "sequences.build_evolutions.calls", "sequences.build_evolutions.total_s",
    "sequences.build_evolutions.self_s", "sequences.build_evolutions.windows",
    "linalg.evolve_times.calls", "linalg.evolve_times.self_s",
    "linalg.evolve_times.state_samples", "linalg.evolve_times.macs_computed",
    "verify.report.calls", "verify.report.self_s", "verify.report.total_s",
    "sequences.apply_evolutions.calls", "sequences.apply_evolutions.self_s",
    "linalg.apply_local.calls", "linalg.apply_local.self_s",
    "verify.phase_audit.calls", "verify.phase_audit.total_s",
    "sequences.compose.calls", "sequences.compose.total_s",
    "dj.run_dj.total_s",
    "verify.swap_fidelity_vs_full.total_s", "verify.swap_peak_level3.total_s",
    "pulses.pulse_local_unitary.calls", "pulses.pulse_local_unitary.self_s",
    "hamiltonians.raman_full_local.self_s", "hamiltonians.raman_effective_local.self_s",
    "hamiltonians.dispersive_local.self_s", "hamiltonians.resonant_drive_local.self_s",
    "hamiltonians.idle_coupling_local.self_s", "hamiltonians.raman_full.self_s",
    "hamiltonians.cavity_ladder.self_s",
    "device.load_params.calls", "device.load_params.self_s",
    "budget.feasibility.total_s",
    "jsonio.write_json.self_s", "jsonio.write_csv.self_s",
    "cli.main.total_s", "cli.build_parser.self_s",
) + tuple(f"{layer}.all.self_s" for layer in LAYERS) + (
    "trace.wall_untraced_s", "trace.wall_traced_s", "trace.overhead_s",
)


class Tracer:
    """Records one span per traced call; ``op`` tags the spans of the current operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        signature = inspect.signature(fn) if arg_counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if arg_counter:
                record[5] = arg_counter(signature.bind(*args, **kwargs))
            elif result_counter:
                record[5] = result_counter(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"gatesim.{layer}") for layer in LAYERS]
        namespaces = modules + [importlib.import_module("gatesim")]
        originals = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patch(namespace, attr, wrapper)
        self._patch(np.linalg, "eigh", self.wrap("linalg.eigh", np.linalg.eigh))

    def _patch(self, namespace, attr: str, value) -> None:
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end", "counts"], "spans": self.spans}, fh)


def layer_totals(spans: list[list], group_of) -> dict[object, dict[str, dict]]:
    """Per group (``group_of(op)``) and span name: calls, total_s, self_s and counts.

    ``<layer>.all`` rows sum the self time of every span of a layer.
    """
    child_time = [0.0] * len(spans)
    for name, parent, op, start, end, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[object, dict[str, dict]] = defaultdict(dict)
    for i, (name, parent, op, start, end, counts) in enumerate(spans):
        rows = out[group_of(op)]
        row = rows.setdefault(name, defaultdict(float))
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        layer = rows.setdefault(name.split(".")[0] + ".all", defaultdict(float))
        layer["self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            row[key] = max(row[key], value) if key in _MAX_COUNTS else row[key] + value
    return out


def per_pass_metrics(spans: list[list], pass_of) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of one pass: medians of times, and counts that must repeat exactly.

    Returns the flat ``<layer>.<function>.<metric>`` map and the names of any
    count that differed between passes.
    """
    passes = layer_totals(spans, pass_of)
    names = sorted({name for rows in passes.values() for name in rows})
    metrics: dict[str, float] = {}
    unsteady = []
    for name in names:
        keys = sorted({key for rows in passes.values() for key in rows.get(name, {})})
        for key in keys:
            values = [rows.get(name, {}).get(key, 0.0) for rows in passes.values()]
            if key.endswith("_s"):
                metrics[f"{name}.{key}"] = statistics.median(values)
            else:
                values = [int(v) for v in values]
                if len(set(values)) > 1:
                    unsteady.append(f"{name}.{key}")
                metrics[f"{name}.{key}"] = values[0]
    return metrics, unsteady
