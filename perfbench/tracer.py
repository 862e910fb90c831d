"""Spans at orbitdim's module boundaries, recorded from outside the package.

``Tracer.install`` rebinds each boundary function by name in every
``orbitdim`` module namespace that holds it (``orbitdim.orbit.apply_generator``,
``orbitdim.apply_generator``, ...), and replaces the two classmethods on their
classes, so calls between modules and within a module both pass through a
wrapper. Nothing under ``src/`` is edited.

Spans live in flat in-memory arrays: one row per call with its op id, parent
span, boundary index, start, end and whether it raised. ``summary`` derives
self time (duration minus the time covered by child spans) from them, and
``save`` writes them out once the run ends. Calls made while no op is open
(set-up, reference checks) are not recorded.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (layer, boundary name, defining module, attribute path)
BOUNDARIES = (
    ("cli", "main", "orbitdim.cli", "main"),
    ("cli", "load_state", "orbitdim.cli", "load_state"),
    ("cli", "render_json", "orbitdim.cli", "render_json"),
    ("cli", "file_digest", "orbitdim.cli", "file_digest"),
    ("fock", "outer", "orbitdim.fock", "outer"),
    ("fock", "mixture", "orbitdim.fock", "mixture"),
    ("fock", "DensityOperator.validate", "orbitdim.fock", "DensityOperator.validate"),
    ("fock", "enumerate_occupations", "orbitdim.fock", "enumerate_occupations"),
    ("generators", "lie_basis", "orbitdim.generators", "lie_basis"),
    ("generators", "apply_generator", "orbitdim.generators", "apply_generator"),
    ("generators", "commutator_with_density", "orbitdim.generators", "commutator_with_density"),
    ("generators", "verify_closure", "orbitdim.generators", "verify_closure"),
    ("orbit", "orbit_dimension", "orbitdim.orbit", "orbit_dimension"),
    ("orbit", "gram_ket", "orbitdim.orbit", "gram_ket"),
    ("orbit", "gram_ketbra", "orbitdim.orbit", "gram_ketbra"),
    ("orbit", "gram_mixed", "orbitdim.orbit", "gram_mixed"),
    ("orbit", "rank_psd", "orbitdim.orbit", "rank_psd"),
    ("dynamics", "TruncatedBasis.build", "orbitdim.dynamics", "TruncatedBasis.build"),
    ("dynamics", "dense_hamiltonian", "orbitdim.dynamics", "dense_hamiltonian"),
    ("dynamics", "estimate_gram_matrix", "orbitdim.dynamics", "estimate_gram_matrix"),
    ("dynamics", "apply_group_word", "orbitdim.dynamics", "apply_group_word"),
)

LAYERS = ("cli", "fock", "generators", "orbit", "dynamics")
_LIE_BASIS = [b[1] for b in BOUNDARIES].index("lie_basis")

#: Recursive boundaries: only the outermost call gets a span.
OUTERMOST_ONLY = frozenset({"render_json"})

COUNTERS = (
    "generators.direction_nnz",
    "orbit.gram_entries",
    "dynamics.basis_states",
    "dynamics.dense_bytes_computed",
)


def metric_names() -> list[str]:
    """Every name that ``summary`` reports."""
    names = [
        f"{layer}.{name}.{q}"
        for layer, name, _, _ in BOUNDARIES
        for q in ("calls", "total_ms", "self_ms", "failed")
    ]
    names += [f"{layer}.self_ms" for layer in LAYERS]
    names += list(COUNTERS)
    names += ["generators.lie_basis.distinct_ratio", "trace.unattributed_frac"]
    return names


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self._stack: list[int] = []
        self._op = array("l")
        self._parent = array("l")
        self._fn = array("l")
        self._t0 = array("d")
        self._t1 = array("d")
        self._failed = array("b")
        self.counters = {name: 0 for name in COUNTERS}
        self.lie_basis_keys: set = set()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "orbitdim" or name.startswith("orbitdim."))]
        for index, (_, name, module_name, attr) in enumerate(BOUNDARIES):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, classmethod(self._wrap(index, name, raw.__func__)))
                continue
            func = getattr(owner, attr)
            wrapper = self._wrap(index, name, func)
            for module in modules:
                if vars(module).get(attr) is func:
                    self._saved.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, so untraced passes run unwrapped code."""
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _wrap(self, index: int, name: str, func):
        count = self._counter(name)
        outermost = name in OUTERMOST_ONLY
        depth = [0]  # open calls of this boundary, for OUTERMOST_ONLY
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.op_id < 0 or (outermost and depth[0]):
                return func(*args, **kwargs)
            depth[0] += 1
            span = len(self._t0)
            self._op.append(self.op_id)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._fn.append(index)
            self._failed.append(0)
            self._t1.append(0.0)
            self._stack.append(span)
            self._t0.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._failed[span] = 1
                raise
            finally:
                self._t1[span] = clock()
                self._stack.pop()
                depth[0] -= 1
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _counter(self, name: str):
        c = self.counters
        if name == "apply_generator":
            def count(args, result):
                c["generators.direction_nnz"] += len(result.terms)
        elif name == "commutator_with_density":
            def count(args, result):
                c["generators.direction_nnz"] += len(result.entries)
        elif name in ("gram_ket", "gram_ketbra", "gram_mixed"):
            def count(args, result):
                c["orbit.gram_entries"] += result.values.shape[0] ** 2
        elif name == "lie_basis":
            def count(args, result):
                self.lie_basis_keys.add((result.group, result.modes))
        elif name == "TruncatedBasis.build":
            def count(args, result):
                c["dynamics.basis_states"] += result.size
        elif name == "dense_hamiltonian":
            def count(args, result):
                c["dynamics.dense_bytes_computed"] += 16 * result.shape[0] ** 2
        else:
            count = None
        return count

    def begin(self, op_id: int) -> None:
        self.op_id = op_id

    def end(self) -> None:
        self.op_id = -1

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "op": np.asarray(self._op, dtype=np.int64),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "fn": np.asarray(self._fn, dtype=np.int64),
            "t0": np.asarray(self._t0),
            "t1": np.asarray(self._t1),
            "failed": np.asarray(self._failed, dtype=np.int8),
        }

    def summary(self, op_walls: list[float], passes: int) -> tuple[dict[str, float], dict]:
        """Per-pass metrics. No boundary encloses a call of itself (the
        recursive ``render_json`` is recorded outermost only), so a
        boundary's total time is the sum of its span durations.

        ``trace.unattributed_frac`` is the share of the ops' traced wall time
        that no span's self time covers: the runner and the outermost
        wrapper's own cost. The returned details check that within each op
        the self times of its spans add up to the root span's duration.
        """
        spans = self._arrays()
        dur = spans["t1"] - spans["t0"]
        nested = spans["parent"] >= 0
        covered = np.bincount(spans["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_s = dur - covered
        fn = spans["fn"]
        n = len(BOUNDARIES)
        calls = np.bincount(fn, minlength=n)
        total = np.bincount(fn, weights=dur, minlength=n)
        selfs = np.bincount(fn, weights=self_s, minlength=n)
        failed = np.bincount(fn, weights=spans["failed"], minlength=n)
        out: dict[str, float] = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
        for i, (layer, name, _, _) in enumerate(BOUNDARIES):
            out[f"{layer}.{name}.calls"] = calls[i] / passes
            out[f"{layer}.{name}.total_ms"] = 1e3 * total[i] / passes
            out[f"{layer}.{name}.self_ms"] = 1e3 * selfs[i] / passes
            out[f"{layer}.{name}.failed"] = failed[i] / passes
            out[f"{layer}.self_ms"] += 1e3 * selfs[i] / passes
        for key, value in self.counters.items():
            out[key] = value / passes
        lie_calls = int(calls[_LIE_BASIS])
        out["generators.lie_basis.distinct_ratio"] = len(self.lie_basis_keys) / lie_calls if lie_calls else 0.0
        wall = sum(op_walls)
        out["trace.unattributed_frac"] = (wall - float(self_s.sum())) / wall if wall else 0.0
        roots = ~nested
        self_by_op = np.bincount(spans["op"], weights=self_s, minlength=len(op_walls))
        root_by_op = np.bincount(spans["op"][roots], weights=dur[roots], minlength=len(op_walls))
        details = {
            "spans": int(dur.size),
            "ops": len(op_walls),
            "max_op_self_sum_error_s": float(np.max(np.abs(self_by_op - root_by_op), initial=0.0)),
            "wrapper_s": float(wall - root_by_op.sum()),
        }
        return {key: float(value) for key, value in out.items()}, details

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array([f"{b[0]}.{b[1]}" for b in BOUNDARIES]), **self._arrays())
