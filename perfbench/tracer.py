"""Spans around calls into permflow's layers, recorded from outside `src/`.

The traced run replaces the public names that one layer looks up to call
the next (``permflow.cli.parse_system``, ``permflow.inference.solve``, ...)
with wrappers that record a span per call: layer name, start, end, parent
span and job id.  Spans stay in memory, in flat arrays, until the run ends;
``layer_totals`` then reduces them to per-layer busy and self times and the
counters recorded at the same boundaries.  ``uninstall`` puts the original
functions back.

Stages that sit behind private names are derived from the spans around
them (see ``solver_stages``).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, layer): the names a caller looks up at call time.
WRAPPED = (
    ("permflow.cli", "parse_system", "parser"),
    ("permflow.cli", "validate_system", "system"),
    ("permflow.cli", "infer_system", "inference"),
    ("permflow.cli", "nitest_system", "nitest"),
    ("permflow.inference", "gen_constraints", "constraints"),
    ("permflow.inference", "solve", "solver"),
    ("permflow.inference", "check_system", "typecheck"),
    ("permflow.solver", "decompose", "solver.decompose"),
    ("permflow.solver", "saturate", "solver.saturate"),
    ("permflow.solver", "constraint_witness", "solver.verify"),
    ("permflow.nitest", "exec_cmd", "interp"),
)

ROOT_LAYER = "cli"  # the span around the whole cli.main call


class Tracer:
    def __init__(self):
        self.layers: list[str] = [ROOT_LAYER] + [layer for _, _, layer in WRAPPED]
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.layer = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._job = -1
        # job id -> counter name -> value, filled at span boundaries
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._saved: list[tuple[object, str, object]] = []
        self._generated: list[tuple[int, object]] = []  # (job, GenOutput)

    # ------------------------------------------------------------ recording

    def _open(self, layer_id: int) -> int:
        sid = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, fn, *args):
        """Call ``fn(*args)`` as job ``job_id`` under the root span."""
        self._job = job_id
        self._stack.clear()
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self._job][name] += value

    def settle(self) -> None:
        """Count the kept generator output once the job's timer has stopped."""
        for job, gen in self._generated:
            self.counts[job]["constraints.generated"] += sum(
                len(cs) for cs in gen.by_function.values())
            self.counts[job]["constraints.unique"] += len(gen.all_constraints())
        self._generated.clear()

    # --------------------------------------------------------- installation

    def install(self) -> None:
        for modname, attr, layer in WRAPPED:
            module = sys.modules[modname]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            hook = getattr(self, "_after_" + layer.replace(".", "_"), None)
            setattr(module, attr, self._wrapper(self._layer_id[layer], original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrapper(self, layer_id: int, fn, hook):
        open_, close = self._open, self._close

        if hook is None:
            def traced(*args, **kwargs):
                sid = open_(layer_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
        else:
            def traced(*args, **kwargs):
                sid = open_(layer_id)
                try:
                    result = fn(*args, **kwargs)
                except Exception as err:
                    close(sid)
                    hook(args, None, err)
                    raise
                close(sid)
                hook(args, result, None)
                return result

        traced.__wrapped__ = fn
        return traced

    # Counters, recorded at the boundary of the call that does the work.

    def _after_parser(self, args, result, err):
        self.count("parser.bytes", len(args[0].encode("utf-8")))

    def _after_constraints(self, args, result, err):
        if result is not None:
            self._generated.append((self._job, result))

    def _after_solver(self, args, result, err):
        if err is not None:
            self.count("solver.core_size", len(getattr(err, "core", ())))

    def _after_solver_decompose(self, args, result, err):
        self.count("solver.decompose.calls")
        if result is not None and self.counts[self._job]["solver.decompose.calls"] == 1:
            self.count("solver.atoms", len(result))

    def _after_solver_saturate(self, args, result, err):
        # Only the first pipeline pass; later passes are core minimisation.
        if result is not None and self.counts[self._job]["solver.decompose.calls"] == 1:
            self.count("solver.saturated_atoms", len(result))

    # ------------------------------------------------------------ reduction

    def layer_totals(self) -> dict[int, dict[str, float]]:
        """Per job: busy (``<layer>.busy``) and self (``<layer>.self``) seconds."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid in range(n):
            dur = self.end[sid] - self.start[sid]
            name = self.layers[self.layer[sid]]
            per = out[self.job[sid]]
            per[name + ".busy"] += dur
            per[name + ".self"] += dur - child[sid]
            per[name + ".spans"] += 1
        for job, stages in self.solver_stages().items():
            for name, value in stages.items():
                out[job][name] += value
        return out

    def solver_stages(self) -> dict[int, dict[str, float]]:
        """Stages of each ``solve`` call that run behind private names.

        * first pass: the solve span up to the start of its second
          ``decompose`` span (the first core-minimisation rerun), or the
          whole span when there is none;
        * sweep: first pass minus its decompose, saturate and verify spans;
        * core: the rest of the solve span (zero on satisfiable systems);
        * core reruns: decompose spans in the solve span minus one.
        """
        solver = self._layer_id["solver"]
        dec = self._layer_id["solver.decompose"]
        sat = self._layer_id["solver.saturate"]
        ver = self._layer_id["solver.verify"]
        kids: dict[int, list[int]] = defaultdict(list)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0 and self.layer[p] == solver:
                kids[p].append(sid)
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid in range(len(self.start)):
            if self.layer[sid] != solver:
                continue
            decs = [c for c in kids[sid] if self.layer[c] == dec]
            first_end = self.start[decs[1]] if len(decs) > 1 else self.end[sid]
            stage = {dec: 0.0, sat: 0.0, ver: 0.0}
            for c in kids[sid]:
                if self.start[c] < first_end:
                    stage[self.layer[c]] += self.end[c] - self.start[c]
            first = first_end - self.start[sid]
            per = out[self.job[sid]]
            per["solver.decompose_s"] += stage[dec]
            per["solver.saturate_s"] += stage[sat]
            per["solver.verify_s"] += stage[ver]
            per["solver.sweep_s"] += first - stage[dec] - stage[sat] - stage[ver]
            per["solver.core_s"] += self.end[sid] - first_end
            per["solver.core_reruns"] += max(len(decs) - 1, 0)
        return out
