"""Benchmark workloads whose outputs must not depend on how they are reached.

metrics.evaluate reuses a backbone's reference features across calls, and
the workload keeps one backbone for all its ops, so every op after the
first scores against the memoised reference. APG culls the rows and
vertices out of contact range, which must not change a sampled bit.
bench/ is imported read-only.
"""

import sys
from pathlib import Path

from conftest import uncut_apg_gradient, uncut_penetration_set
from handpair import sampler

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def test_evaluate_op_checksum_is_the_same_warm_as_cold():
    work = workloads.Evaluate(1)
    op0, op1 = work.inputs(0), work.inputs(1)
    cold = work.output_bytes(work.op(op0))
    work.op(op1)
    warm = work.output_bytes(work.op(op0))
    assert warm == cold


def test_sample_op_is_the_same_with_the_uncut_contact(monkeypatch):
    work = workloads.Sample(1)
    op0 = work.inputs(0)
    culled = work.output_bytes(work.op(op0))
    monkeypatch.setattr(sampler, "penetration_set", uncut_penetration_set)
    monkeypatch.setattr(sampler, "apg_gradient", uncut_apg_gradient)
    assert work.output_bytes(work.op(op0)) == culled
