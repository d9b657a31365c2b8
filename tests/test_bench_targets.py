"""Every function the benchmark's tracer wraps must still be where it looks.

bench/spans.py names each traced function by the module or class its
callers look it up on. A change that moves one of them (into a base class,
say) would leave the traced run with a missing target; this test finds that
without running the benchmark.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
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
