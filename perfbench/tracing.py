"""In-memory span tracer wrapped around the program's public functions.

`Tracer.install` replaces every module attribute of the `fusionlab` package
that binds a public function -- name-bound imports such as
`entanglement.relevant_probabilities` included -- with a wrapper that records
a span (name, start, end, parent span, operation id) while an operation is
open.  A span is named after the function's defining module, so a call
through any binding counts once under one name.  The wrappers only call
through; results are bit-identical with tracing on or off.  Spans stay in
memory until `dump`.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# work counted at a layer boundary, by function: (args, kwargs, result) -> count
ITEM_COUNTERS = {
    "matrices.from_params": lambda a, k, r: r.size // 16,
    "matrices.haar_sample": lambda a, k, r: r.size // 16,
    "fusion.relevant_probabilities": lambda a, k, r: r.size // 6,
    "entanglement.determinants_from_matrix": lambda a, k, r: r.size // 6,
    "reports.write_json": _file_bytes,
    "oracle.fuse": lambda a, k, r: r.state.size,
    # descent iterations that ran: the winner's trace has one value per iteration
    "optimize.optimize": lambda a, k, r: len(r.trace),
}

# the per-layer metrics a traced run reports: function -> reported fields
LAYER_FIELDS = {
    "matrices.from_params": ("calls", "ms", "matrices"),
    "optimize.optimize": ("calls", "ms"),
    "optimize.sweep": ("ms",),
    "matrices.params_from_matrix": ("calls", "ms"),
    "fusion.relevant_probabilities": ("calls", "ms", "rows"),
    "entanglement.determinants_from_matrix": ("calls", "ms", "rows"),
    "entanglement.entropy_from_det": ("calls", "ms"),
    "entanglement.eigenvalues_from_det": ("calls", "ms"),
    "entanglement.entropy": ("calls", "ms"),
    "fusion.diag_probabilities": ("calls", "ms"),
    "fusion.channel_invariants": ("calls", "ms"),
    "matrices.haar_sample": ("ms", "matrices"),
    "optimize.random_scatter": ("ms",),
    "optimize.threshold_probability": ("calls", "ms"),
    "matrices.validate_unitary": ("calls", "ms"),
    "matrices.load_matrix": ("ms",),
    "fusion.outcome_table": ("calls", "ms"),
    "classify.classify": ("calls", "ms"),
    "classify.is_cluster_up_to_rotation": ("calls", "ms"),
    "entanglement.outcome_entropy": ("calls", "ms"),
    "cli.main": ("ms",),
    "reports.analyze_report": ("ms",),
    "reports.write_json": ("calls", "ms", "bytes"),
    "reports.json_text": ("ms",),
    "reports.atomic_write_text": ("ms",),
    "oracle.compare_scenario": ("calls", "ms"),
    "oracle.fuse": ("calls", "ms", "amplitudes"),
    "oracle.build_graph_state": ("calls", "ms"),
    "oracle.apply_fusion_projector": ("calls", "ms"),
    "oracle.bipartite_entropy": ("calls", "ms"),
    "oracle.check_Te_stabilizer": ("calls", "ms"),
    "oracle.check_weighted_graph_equivalence": ("calls", "ms"),
    "oracle.bosonic_outcome_table": ("calls", "ms"),
}
FIELD_UNITS = {"ms": "ms/op"}
RATIOS = {
    # exact count of matrices parameterized per optimized target
    "optimize.matrices_per_target": "matrices/target",
    # probability rows computed per determinant row; 1 would mean one kernel pass
    "fusion.relevant_probabilities.rows_per_matrix": "rows/matrix",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{fn}.{field}": FIELD_UNITS.get(field, "count/op")
        for fn, fields in LAYER_FIELDS.items()
        for field in fields
    }
    units["optimize.iterations"] = "count/op"
    units.update(RATIOS)
    return units


def function_key(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.items: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, package: str = "fusionlab") -> None:
        wrappers: dict[int, object] = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for name, value in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith(package)
                ):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value)
                self._restore.append((module, name, value))
                setattr(module, name, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    def _wrap(self, fn):
        key = function_key(fn)
        counted = ITEM_COUNTERS.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = [key, perf_counter(), 0.0, tracer._stack[-1], tracer._op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if counted is not None:
                tracer.items[key] += counted(args, kwargs, result)
            return result

        return traced

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._stack = [len(self.spans)]
        self.spans.append(["op", perf_counter(), 0.0, None, op_id])
        self._op = op_id

    def end_op(self) -> None:
        self.spans[self._stack[0]][2] = perf_counter()
        self._op = None
        self._stack = []

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per function: span minus its children's spans."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if name != "op":
                out[name] += end - start - child[idx]
        return out

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation layer metrics, keyed as `layer_units()`."""
        calls = Counter(s[0] for s in self.spans)
        self_s = self.self_times()
        values = {}
        for fn, fields in LAYER_FIELDS.items():
            for field in fields:
                if field == "calls":
                    v = calls[fn]
                elif field == "ms":
                    v = 1e3 * self_s.get(fn, 0.0)
                else:
                    v = self.items[fn]
                values[f"{fn}.{field}"] = v / n_ops
        values["optimize.iterations"] = self.items["optimize.optimize"] / n_ops
        targets = calls["optimize.optimize"]
        values["optimize.matrices_per_target"] = (
            self.items["matrices.from_params"] / targets if targets else 0.0
        )
        det_rows = self.items["entanglement.determinants_from_matrix"]
        values["fusion.relevant_probabilities.rows_per_matrix"] = (
            self.items["fusion.relevant_probabilities"] / det_rows if det_rows else 0.0
        )
        return values

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                span = {"id": idx, "name": name, "start": start - t0, "end": end - t0}
                fh.write(json.dumps({**span, "parent": parent, "op": op}) + "\n")
