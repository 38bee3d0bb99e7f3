"""Span recorder for traced benchmark runs.

``Tracer.install`` wraps the public functions and operator methods of every
tccr layer with a recorder, from outside the package: each call appends one
span ``(name, start, end, parent)`` to an in-memory list, and a few wrappers
also bump counters (flops, allocations, cache lookups).  ``Tracer.restore``
puts the originals back.  Nothing in ``src/`` knows about this module.

A name bound by ``from .x import y`` is a second reference to the same
function, so every tccr module attribute that *is* the original gets the
wrapper; that also covers the recursive module-global lookup inside
``tccr.symbolic.evaluate_word``.

A span's self time is its duration minus the durations of its direct child
spans.  Work done by a counting hook after its call returns is recorded as a
``trace.hooks`` span, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

# module -> public functions to wrap; the span is "<layer>.<function>" unless renamed
FUNCTIONS = {
    "tccr.fock": (
        "enumerate_basis", "identity", "zero", "operator_norm", "spectral_norm",
        "psd_sqrt", "polar_left", "core_residual",
    ),
    "tccr.families": ("build_irrep", "build_fock_tccr", "build_qccr_single"),
    "tccr.reconstruct": (
        "weighted_range_series", "positive_part_squared", "conjugation_series",
        "isometries_from_generators", "generators_from_isometries",
        "verify_stage_identities", "roundtrip_check",
    ),
    "tccr.relations": (
        "tccr_relations", "pi_relations", "qccr_relations", "relation_residuals",
        "tccr_residuals", "pi_residuals", "qccr_residuals", "norm_bound_check",
        "norm_domination_sample", "collapse_check", "fock_generator_slots",
        "tensor_word_product", "apply_collapse", "tensor_word_matrix",
    ),
    "tccr.symbolic": (
        "normal_order", "vacuum_expectation", "gram_basis_words", "gram_matrix",
        "evaluate_mu_matrix", "parse_polynomial", "evaluate_word", "evaluate_poly",
        "eval_and_bridge", "random_word", "random_polynomial",
    ),
    "tccr.report": ("merge_reports",),
    "tccr.cli": ("main", "emit_report"),
}

RENAMED = {
    "families.build_irrep": "families.build",
    "families.build_fock_tccr": "families.build",
    "families.build_qccr_single": "families.build",
    "cli.emit_report": "report.emit",
}

# (module, class) -> method -> span
METHODS = {
    ("tccr.fock", "LinearOperator"): {
        "__matmul__": "fock.matmul",
        "__add__": "fock.elementwise",
        "__sub__": "fock.elementwise",
        "__neg__": "fock.elementwise",
        "__mul__": "fock.elementwise",
        "__rmul__": "fock.elementwise",
        "adjoint": "fock.elementwise",
    },
    ("tccr.report", "VerificationReport"): {
        "add": "report.add",
        "extend": "report.extend",
    },
}

COMPLEX_BYTES = 16


class Tracer:
    """Spans and counters of one traced campaign."""

    def __init__(self) -> None:
        # (name, start, end, parent index); a slot is reserved when a call starts
        self.spans: list = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(result)
                spans.append(("trace.hooks", end, clock(), parent))
            return result

        return traced

    # -- counting hooks ----------------------------------------------------

    def _count_matmul(self, product) -> None:
        dim = product.basis.dim
        self.counters["fock.matmul.flop"] += 8 * dim**3
        self.counters["fock.matmul.nonzero"] += int(np.count_nonzero(product.matrix))
        self.counters["fock.matmul.entries"] += dim * dim

    def _count_build(self, family) -> None:
        key = "families.build.max_dim"
        self.counters[key] = max(self.counters[key], family.basis.dim)

    def _count_word_lookup(self, args) -> None:
        family, word = args
        self.counters["symbolic.word_cache.lookups"] += 1
        if tuple(word) in family.word_cache:
            self.counters["symbolic.word_cache.hits"] += 1
        else:  # the miss is stored: one dense complex matrix
            self.counters["symbolic.word_cache.bytes"] += COMPLEX_BYTES * family.basis.dim**2

    def _count_gram(self, result) -> None:
        words, entries = result
        self.counters["symbolic.gram.nonzero"] += sum(not e.is_zero for row in entries for e in row)
        self.counters["symbolic.gram.pairings"] += len(words) ** 2

    def _hooks(self, span: str) -> tuple:
        return {
            "fock.matmul": (None, self._count_matmul),
            "families.build": (None, self._count_build),
            "symbolic.evaluate_word": (self._count_word_lookup, None),
            "symbolic.gram_matrix": (None, self._count_gram),
        }.get(span, (None, None))

    # -- installation ------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function and method; call after ``import tccr.cli``."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "tccr" or n.startswith("tccr.")]
        for module_name, names in FUNCTIONS.items():
            layer = module_name.split(".")[1]
            for name in names:
                original = getattr(sys.modules[module_name], name)
                span = RENAMED.get(f"{layer}.{name}", f"{layer}.{name}")
                traced = self.wrap(span, original, *self._hooks(span))
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patch(module, attr, traced)
        for (module_name, class_name), methods in METHODS.items():
            cls = getattr(sys.modules[module_name], class_name)
            for method, span in methods.items():
                self._patch(cls, method, self.wrap(span, cls.__dict__[method], *self._hooks(span)))
        operator = sys.modules["tccr.fock"].LinearOperator
        self._patch(operator, "__post_init__", self._counting_post_init(operator.__post_init__))

    def _counting_post_init(self, original: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(original)
        def post_init(op) -> None:
            counters["fock.alloc_bytes"] += COMPLEX_BYTES * op.basis.dim**2
            original(op)

        return post_init

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: call count and summed self time; plus the counters."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        per_name: dict[str, list] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = per_name.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - inner[index]
        return {
            "spans": {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(per_name.items())},
            "counters": dict(sorted(self.counters.items())),
        }

    def write(self, path: str) -> None:
        """One JSON array [name, start, end, parent] per line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
