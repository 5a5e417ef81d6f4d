"""Outside-in span tracing of the genchol layers.

The tracer never edits the package.  It replaces public functions under the
names each caller module resolves at call time: the module globals of
``harness``, ``bounds``, ``oracle`` and ``factorization`` (which bound them
with ``from .densela import ...``), and of ``densela`` itself, so that kernel
calls made inside ``densela`` (``spectral_norm`` -> ``singular_values``,
``is_psd`` -> ``sym_eigenvalues``) nest as well.  The two ``NormwiseEvaluator``
methods are replaced on the class.  ``uninstall`` puts every original back.

Spans live in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from genchol import bounds, densela, factorization, harness, oracle

# (owner, attribute) -> span name.  Both factorization entry points run the
# same block elimination, so they share one span name.
TRACED_FUNCTIONS = (
    (densela, "singular_values", "densela.singular_values"),
    (densela, "spectral_norm", "densela.spectral_norm"),
    (densela, "sym_eigenvalues", "densela.sym_eigenvalues"),
    (densela, "matmul", "densela.matmul"),
    (densela, "lower_tri_solve", "densela.lower_tri_solve"),
    (densela, "fro_norm", "densela.fro_norm"),
    (oracle, "build_w", "oracle.build_w"),
    (oracle, "w_inverse_norm", "oracle.w_inverse_norm"),
    (oracle, "compensated_residual", "oracle.compensated_residual"),
    (bounds, "build_componentwise_report", "bounds.componentwise_report"),
    (bounds, "scaling_candidates", "bounds.scaling_candidates"),
    (factorization, "factorize", "factorization.factorize"),
    (factorization, "factorize_dense", "factorization.factorize"),
    (harness, "make_saddle", "harness.make_saddle"),
    (harness, "run_normwise_campaign", "harness.campaign"),
    (harness, "run_componentwise_campaign", "harness.campaign"),
    (harness, "emit_report", "harness.emit_report"),
)
TRACED_METHODS = (
    (bounds.NormwiseEvaluator, "__init__", "bounds.normwise_init"),
    (bounds.NormwiseEvaluator, "report", "bounds.normwise_report"),
)
CALLER_MODULES = (harness, bounds, oracle, factorization, densela)

ROOT_SPAN = "trial"


def _matmul_flop(args) -> int:
    (rows, inner), (_, cols) = args[0].shape, args[1].shape
    return 2 * rows * inner * cols


def _max_order(args) -> int:
    return max(np.shape(args[0]), default=0)


# Span name -> function of the call arguments giving the span's size figure.
SIZE_OF = {
    "densela.matmul": _matmul_flop,
    "densela.singular_values": _max_order,
}

# Span fields: name, start, end, parent index (-1 for none), trial id,
# exception type name or None, size figure or None.
NAME, START, END, PARENT, TRIAL, ERROR, SIZE = range(7)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.trial: int | None = None

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        size_of = SIZE_OF.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                size = size_of(args) if size_of is not None else None
                spans[index] = (name, start, end, parent, self.trial, error, size)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TRACED_FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in CALLER_MODULES:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for cls, attr, name in TRACED_METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, trial, error, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_time_residual(spans) -> float:
    """Largest |sum of self times in a trial - that trial's root duration|,
    relative to the root duration.  Zero up to rounding when every span nests
    inside its parent."""
    own = self_times(spans)
    totals: dict[int, float] = defaultdict(float)
    roots: dict[int, float] = {}
    root_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        root_of[i] = i if s[PARENT] < 0 else root_of[s[PARENT]]
        if s[NAME] == ROOT_SPAN:
            roots[i] = s[END] - s[START]
    for i in range(len(spans)):
        totals[root_of[i]] += own[i]
    worst = 0.0
    for root, duration in roots.items():
        worst = max(worst, abs(totals[root] - duration) / duration)
    return worst


def layer_metrics(spans, attempted: int) -> dict[str, float]:
    """Per-layer figures; per attempted trial unless the name says otherwise.

    ``<span>.ms_per_trial`` is inclusive time (children included).
    """
    own = self_times(spans)
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    max_size: dict[str, int] = defaultdict(int)
    errors: dict[tuple[str, str], int] = defaultdict(int)
    campaign_self = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        ms[name] += 1000.0 * (s[END] - s[START])
        calls[name] += 1
        if s[SIZE] is not None:
            size[name] += s[SIZE]
            max_size[name] = max(max_size[name], s[SIZE])
        if s[ERROR] is not None:
            errors[(name, s[ERROR])] += 1
        if name == "harness.campaign":
            campaign_self += 1000.0 * own[i]
    n = float(attempted)
    out = {
        "densela.singular_values.ms_per_trial": ms["densela.singular_values"] / n,
        "densela.singular_values.calls_per_trial": calls["densela.singular_values"] / n,
        "densela.singular_values.max_order": float(max_size["densela.singular_values"]),
        "densela.sym_eigenvalues.ms_per_trial": ms["densela.sym_eigenvalues"] / n,
        "densela.matmul.ms_per_trial": ms["densela.matmul"] / n,
        "densela.matmul.calls_per_trial": calls["densela.matmul"] / n,
        "densela.matmul.flop_per_trial": size["densela.matmul"] / n,
        "densela.lower_tri_solve.ms_per_trial": ms["densela.lower_tri_solve"] / n,
        "densela.fro_norm.ms_per_trial": ms["densela.fro_norm"] / n,
        # the error is counted where it is raised, not in every caller it crosses
        "densela.convergence_errors": (
            errors[("densela.singular_values", "ConvergenceError")]
            + errors[("densela.sym_eigenvalues", "ConvergenceError")]
        ) / n,
        "oracle.build_w.ms_per_trial": ms["oracle.build_w"] / n,
        "oracle.w_inverse_norm.ms_per_trial": ms["oracle.w_inverse_norm"] / n,
        "oracle.compensated_residual.ms_per_trial": ms["oracle.compensated_residual"] / n,
        "bounds.normwise_init.ms_per_trial": ms["bounds.normwise_init"] / n,
        "bounds.normwise_report.ms_per_trial": ms["bounds.normwise_report"] / n,
        "bounds.componentwise_report.ms_per_trial": ms["bounds.componentwise_report"] / n,
        "bounds.scaling_candidates.ms_per_trial": ms["bounds.scaling_candidates"] / n,
        "factorization.factorize.ms_per_trial": ms["factorization.factorize"] / n,
        "factorization.factorize.calls_per_trial": calls["factorization.factorize"] / n,
        "factorization.breakdowns": (
            errors[("factorization.factorize", "FactorizationError")] / n
        ),
        "harness.make_saddle.ms_per_trial": ms["harness.make_saddle"] / n,
        "harness.draws_per_trial": calls["harness.make_saddle"] / n,
        "harness.campaign_self.ms_per_trial": campaign_self / n,
        "harness.emit_report.ms": ms["harness.emit_report"],
    }
    return out
