"""Every function the benchmark's tracer wraps must still be where it looks,
and every span the benchmark's self-test expects must be one it traces.

bench/spans.py names each traced function by the module or class its
callers look it up on. A change that moves one of them (into a base class,
say) would leave the traced run with a missing target; this test finds that
without running the benchmark. bench/selftest.py's MUST_CALL names spans
each workload must record and MUST_NOT_CALL layers it must not touch; a name
that spans.py does not trace would fail the self-test only when it runs.
"""

import ast
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import spans  # noqa: E402


def test_every_trace_target_resolves():
    missing = []
    for name, sites, _ in spans.TARGETS:
        attr = name.rsplit(".", 1)[1]
        for site in sites:
            owner = spans._resolve(site)
            # A class site is read through its own __dict__, as the tracer
            # reads it: an inherited method would be wrapped on the wrong class.
            found = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if not callable(found):
                missing.append(f"{site}.{attr}")
    assert missing == []


def _selftest_table(name):
    """The literal assigned to ``name`` in bench/selftest.py, read as source."""
    tree = ast.parse((BENCH / "selftest.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/selftest.py assigns no {name}")


def test_selftest_expects_only_traced_spans_and_layers():
    must_call = _selftest_table("MUST_CALL")
    must_not_call = _selftest_table("MUST_NOT_CALL")
    unknown = sorted({n for names in must_call.values() for n in names} - set(spans.SPAN_NAMES))
    unknown += sorted({n for layers in must_not_call.values() for n in layers}
                      - set(spans.LAYERS))
    assert unknown == []
