"""Layer-boundary tracing for one benchmark repetition.

Wraps, at run time and from outside the package, the names that
`mfdyn.harness` calls into the other modules. Every wrapped call records a
span (name, start, end, parent, thread); operators returned from `build_HN`
and from the dGamma(q) construction inside `condensate` are wrapped so that each
matrix-vector product is counted on the innermost open span of the calling
thread. Nothing under `src/` is modified. A name that a later version of the
package no longer has is reported as absent instead of failing the run.
"""
from __future__ import annotations

import functools
import json
import threading
import time

# (name in mfdyn.harness, span name)
HARNESS_CALLS = [
    ("enumerate_basis", "fock.enumerate_basis"),
    ("build_HN", "fock.build_HN"),
    ("product_state", "fock.product_state"),
    ("evolve_hartree", "onebody.evolve_hartree"),
    ("gamma1", "reduce.gamma1"),
    ("gamma2", "reduce.gamma2"),
    ("E_k", "reduce.indicators"),
    ("R_k", "reduce.indicators"),
    ("occupation_weights", "condensate.occupation_weights"),
    ("energies", "bounds.energies"),
    ("wnorm_upper_bound", "bounds.envelopes"),
    ("phi_envelope_integral", "bounds.envelopes"),
    ("gronwall_alpha_bound", "bounds.envelopes"),
    ("phi_tilde_integral", "bounds.envelopes"),
    ("beta_bound_envelope", "bounds.envelopes"),
    ("run_simulation", "harness.run_simulation"),
    ("sweep_N", "harness.sweep_N"),
    ("records_csv", "harness.records_csv"),
]


class CountingMatrix:
    """Delegates to a matrix and counts `@` products on the open span."""

    def __init__(self, mat, tracer: "Tracer"):
        self._mat = mat
        self._tracer = tracer

    def __matmul__(self, other):
        self._tracer.count_matvec()
        return self._mat @ other

    def __getattr__(self, name):
        return getattr(self._mat, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread, matvecs]
        self.values: dict[str, float] = {}
        self.absent: list[str] = []
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent, threading.get_ident(), 0]
            )
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return on_result(out) if on_result is not None else out

        return wrapper

    def count_matvec(self) -> None:
        stack = self._stack()
        if stack:
            self.spans[stack[-1]][5] += 1

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.values[key] = self.values.get(key, 0) + value

    def install(self, harness, condensate) -> None:
        """Wrap the layer boundaries reachable from `harness`."""
        hooks = {
            "enumerate_basis": self._note_basis,
            "build_HN": self._note_HN,
        }
        for attr, name in HARNESS_CALLS:
            fn = getattr(harness, attr, None)
            if fn is None:
                self.absent.append(f"{name} ({attr})")
                continue
            setattr(harness, attr, self.span(name, fn, hooks.get(attr)))

        stepper = getattr(harness, "NBodyStepper", None)
        if stepper is None or not hasattr(stepper, "step"):
            self.absent.append("propagate.NBodyStepper")
        else:
            stepper.__init__ = self.span("propagate.NBodyStepper.init", stepper.__init__)
            stepper.step = self.span("propagate.step", stepper.step)

        sq = getattr(condensate, "second_quantize_onebody", None)
        if sq is None:
            self.absent.append("condensate.dGamma_q (second_quantize_onebody)")
        else:
            condensate.second_quantize_onebody = self.span(
                "condensate.dGamma_q", sq, lambda A: CountingMatrix(A, self)
            )

    def _note_basis(self, basis):
        self.add("fock.basis_dim", int(basis.dim))
        return basis

    def _note_HN(self, H):
        self.add("fock.HN_nnz", int(getattr(H, "nnz", 0)))
        return CountingMatrix(H, self)

    # --- summaries --------------------------------------------------------

    def by_name(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name and s[2] is not None]

    def busy(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.by_name(name))

    def matvecs(self, name: str) -> int:
        return sum(s[5] for s in self.by_name(name))

    def self_time(self, names: tuple[str, ...]) -> float:
        """Duration of the named spans minus that of their direct children."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[3] is not None and s[2] is not None:
                child_time[s[3]] = child_time.get(s[3], 0.0) + s[2] - s[1]
        return sum(
            s[2] - s[1] - child_time.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[0] in names and s[2] is not None
        )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "thread", "matvecs"],
                    "spans": self.spans,
                    "absent": self.absent,
                },
                fh,
            )
