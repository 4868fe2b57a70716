"""The benchmark under perfbench/ times the package by wrapping the
functions that perfbench/spans.py names and by patching the study's
module-level bindings.  A refactor that drops one of those names makes the
benchmark lose a span, or makes the snr_sweep study record no operations
so that every planned one counts as failed.  These tests read spans.py as
text, without importing or changing it."""

import ast
import importlib
from pathlib import Path

import wbdoa.baselines
import wbdoa.bench
import wbdoa.recovery

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# targets whose function was removed before this guard existed; the
# benchmark reports each as an absent span
KNOWN_ABSENT = {("wbdoa.atoms", "assemble_dual_sdp")}


def _targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for span, module, path in targets:
        if (module, path) in KNOWN_ABSENT:
            continue
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{span}: {module}.{path}")
    assert missing == []


def test_study_bindings_are_patchable():
    assert wbdoa.bench.estimate_doa is wbdoa.recovery.estimate_doa
    assert wbdoa.bench.rss_estimate is wbdoa.baselines.rss_estimate
