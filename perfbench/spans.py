"""Spans around the package's public functions, installed from outside.

A target names a function by its home module and attribute path, e.g.
``("wbdoa.solver", "solve")`` or ``("wbdoa.focusing", "FocusingSet.build")``.
Installing a target replaces the function with a timing wrapper wherever a
``wbdoa`` module binds it (``from .solver import solve`` makes a second
binding in ``wbdoa.recovery``), and uninstalling puts every original
object back.  A target whose module or attribute no longer exists is
reported as absent and skipped, so a refactor that renames or drops a
function still runs the benchmark.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, home module, attribute path).  The first part of the span
# name is the layer the span is charged to.
TARGETS = (
    ("model.synthesize", "wbdoa.model", "synthesize_scene"),
    ("focusing.build", "wbdoa.focusing", "FocusingSet.build"),
    ("focusing.gamma", "wbdoa.focusing", "gamma_oracle"),
    ("focusing.measurements", "wbdoa.focusing", "noiseless_measurements"),
    ("atoms.problem", "wbdoa.atoms", "ConicProblem.__init__"),
    ("atoms.assemble", "wbdoa.atoms", "assemble_dual_sdp"),
    ("solver.solve", "wbdoa.solver", "solve"),
    ("solver.psd_project", "wbdoa.solver", "psd_project"),
    ("solver.affine_project", "wbdoa.solver", "affine_project"),
    ("recovery.estimate", "wbdoa.recovery", "estimate_doa"),
    ("recovery.locate_frequencies", "wbdoa.recovery", "locate_frequencies"),
    ("recovery.recover_amplitudes", "wbdoa.recovery", "recover_amplitudes"),
    ("baselines.rss_estimate", "wbdoa.baselines", "rss_estimate"),
    ("baselines.music_spectrum", "wbdoa.baselines", "music_spectrum"),
    ("baselines.focusing", "wbdoa.baselines", "rss_focusing_matrices"),
    ("bench.study", "wbdoa.bench", "run_experiment"),
)

# Spans that start one operation; nested spans carry its id.
OPERATION_SPANS = ("recovery.estimate", "baselines.rss_estimate")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Collects spans in memory while installed.

    The results of ``solver.solve`` are kept too, as (op id, solution)
    pairs in ``solves``, for the certificate checked after a traced round.
    """

    targets: tuple = TARGETS
    spans: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _ops: int = 0

    def reset(self):
        self.spans, self.solves, self._stack = [], [], []

    def _wrap(self, name, fn):
        keep = name == "solver.solve"
        starts_op = name in OPERATION_SPANS

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if starts_op:
                self._ops += 1
                op = self._ops
            else:
                op = parent.op if parent else None
            span = Span(len(self.spans), name, parent.id if parent else None,
                        op, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                self.solves.append((op, out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        undo = []
        self.absent = []
        try:
            for name, module, path in self.targets:
                if not _install(name, module, path, self._wrap, undo):
                    self.absent.append(name)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _install(name, module, path, wrap, undo) -> bool:
    """Wrap one target; False when it does not exist."""
    home = sys.modules.get(module)
    if home is None:
        return False
    *owners, attr = path.split(".")
    owner = home
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if isinstance(owner, type):
        # class attribute: wrap the function under its descriptor
        raw = owner.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(wrap(name, raw.__func__))
        elif callable(raw):
            replacement = wrap(name, raw)
        else:
            return False
        undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        return True
    original = getattr(owner, attr, None)
    if not callable(original):
        return False
    replacement = wrap(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "wbdoa" or mod_name.startswith("wbdoa.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
    return True


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Per span name: call count, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time.get(s.id, 0.0)
    return out


def top_level_seconds(spans) -> float:
    return sum(s.end - s.start for s in spans if s.parent is None)
