"""Span tracer for the traced benchmark run.

Wraps the public functions of each qlimit module from outside the package:
every call records a span (name, start, end, parent span, job id) in
memory, and counters are kept at the same boundaries. ``numpy.linalg.eigh``
is counted (calls, matrices, seconds) but not given a span, so its time
stays in the propagator's self time. Spans are written out once, when the
run ends. Nothing in the package is edited; functions a later version no
longer has are skipped and read as zero.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Public functions wrapped per module (the layers of the program).
LAYERS = {
    "cli": ("cmd_gaussian", "cmd_evolve", "cmd_operators", "cmd_check"),
    "checks": ("run_all_checks",),
    "propagator": ("evolve", "initial_state", "observables_series",
                   "step_strang", "step_magnus2", "exact_free_evolution"),
    "gaussian": ("theta3", "gamma_kappa", "upsilon_kappa"),
    "fourier": ("dft_matrices", "apply_dft", "apply_inverse_dft", "tilde_delta"),
    "operators": ("rate_operator", "trend_operator", "price_operator", "kinetic_operator",
                  "diagonal_potential", "hamiltonian_at", "expectation"),
    "lattice": ("new_lattice", "normalize", "inner_product", "delta_state", "probabilities"),
}
OPERATOR_BUILDERS = tuple(f"operators.{n}" for n in LAYERS["operators"] if n != "expectation")
STEP_FNS = ("propagator.step_strang", "propagator.step_magnus2")
ROOT_SPAN = "job"


class Tracer:
    """Installs wrappers around the package while a traced job runs."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, job id]
        self.per_job: list[dict] = []
        self._stack: list[int] = []
        self._job = -1
        self._first = 0
        self._counts: dict[str, float] = defaultdict(float)
        self._patches = self._plan()

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _record_run(self, traj) -> None:
        config = traj.config
        refine = 8 if config.method == "reference" else 1  # reference = magnus2 at dt/8
        self._counts["evolve_steps"] += config.n_steps * refine
        self._counts["norm_drift"] = max(self._counts["norm_drift"], traj.norm_drift)

    def _counted_eigh(self, fn):
        counts, clock = self._counts, time.perf_counter

        @functools.wraps(fn)
        def eigh(a, *args, **kwargs):
            t0 = clock()
            try:
                return fn(a, *args, **kwargs)
            finally:
                counts["eigh_s"] += clock() - t0
                counts["eigh_calls"] += 1
                shape = np.shape(a)
                counts["eigh_matrices"] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1

        return eigh

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every patch site."""
        modules = [m for name, m in sys.modules.items()
                   if name == "qlimit" or name.startswith("qlimit.")]
        hooks = {"propagator.evolve": self._record_run}
        patches = []
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"qlimit.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapped = self._span(f"{layer}.{name}", original, hooks.get(f"{layer}.{name}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original, wrapped))

        checks = sys.modules.get("qlimit.checks")
        registry = getattr(checks, "ALL_CHECKS", ())
        traced_checks = tuple(self._span(f"checks.{fn.__name__.removeprefix('check_')}", fn)
                              for fn in registry)
        patches.append((checks, "ALL_CHECKS", registry, traced_checks))

        state_vector = sys.modules["qlimit.lattice"].StateVector
        post_init = state_vector.__post_init__
        patches.append((state_vector, "__post_init__", post_init,
                        self._span("lattice.StateVector", post_init)))
        patches.append((np.linalg, "eigh", np.linalg.eigh, self._counted_eigh(np.linalg.eigh)))
        return patches

    # -- one traced job -----------------------------------------------------

    def begin_job(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._job += 1
        self._first = len(self.spans)
        self._counts.clear()
        self._stack.append(self._first)
        self.spans.append([ROOT_SPAN, time.perf_counter(), 0.0, -1, self._job])

    def end_job(self, extra: dict) -> None:
        self.spans[self._first][2] = time.perf_counter()
        self._stack.pop()
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        metrics = self._job_metrics(self.spans[self._first:], self._first)
        metrics.update(extra)
        self.per_job.append(metrics)

    def _job_metrics(self, spans: list[list], offset: int) -> dict:
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[3] >= offset:
                child[s[3] - offset] += d
        names = [s[0] for s in spans]
        parents = [names[s[3] - offset] if s[3] >= offset else "" for s in spans]

        def total(pred):  # inclusive time of matching spans not nested in another match
            return sum(d for n, p, d in zip(names, parents, dur) if pred(n) and not pred(p))

        def count(pred):
            return sum(1 for n in names if pred(n))

        m: dict[str, float] = defaultdict(float)
        for name, d, c in zip(names, dur, child):
            m[f"{name.split('.')[0]}.self_s"] += d - c
        for name, d in zip(names, dur):
            if name.startswith("checks.") and name != "checks.run_all_checks":
                m[f"{name}_s"] += d
        job_s = dur[0]
        c = self._counts
        evolve_steps = c["evolve_steps"]
        step_calls = count(lambda n: n in STEP_FNS)
        m.update({
            "job_s": job_s,
            "propagator.share": m["propagator.self_s"] / job_s,
            "propagator.steps": evolve_steps + step_calls,
            "propagator.step_us": (
                1e6 * sum(d - ch for n, d, ch in zip(names, dur, child) if n == "propagator.evolve")
                / evolve_steps if evolve_steps else 0.0),
            "propagator.evolve_s": total(lambda n: n == "propagator.evolve"),
            "propagator.initial_state_s": total(lambda n: n == "propagator.initial_state"),
            "propagator.observables_s": total(lambda n: n == "propagator.observables_series"),
            "propagator.norm_drift": c["norm_drift"],
            "propagator.eigh_calls": c["eigh_calls"],
            "propagator.eigh_matrices": c["eigh_matrices"],
            "propagator.eigh_s": c["eigh_s"],
            "propagator.step_fn_calls": step_calls,
            "propagator.step_fn_us": (1e6 * total(lambda n: n in STEP_FNS) / step_calls
                                      if step_calls else 0.0),
            "lattice.states_built": count(lambda n: n == "lattice.StateVector"),
            "lattice.state_build_s": total(lambda n: n == "lattice.StateVector"),
            "gaussian.theta3_calls": count(lambda n: n == "gaussian.theta3"),
            "gaussian.theta3_s": total(lambda n: n == "gaussian.theta3"),
            "gaussian.gamma_calls": count(lambda n: n == "gaussian.gamma_kappa"),
            "gaussian.gamma_s": total(lambda n: n == "gaussian.gamma_kappa"),
            "fourier.dft_calls": count(lambda n: n.startswith("fourier.")),
            "fourier.dft_s": total(lambda n: n.startswith("fourier.")),
            "operators.build_calls": count(lambda n: n in OPERATOR_BUILDERS),
            "operators.build_s": total(lambda n: n in OPERATOR_BUILDERS),
            "operators.expectation_calls": count(lambda n: n == "operators.expectation"),
            "operators.expectation_s": total(lambda n: n == "operators.expectation"),
        })
        return m

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent index, job id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
