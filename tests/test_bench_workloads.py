"""The benchmark's evaluate workload gives op 0 the same output warm as cold.

metrics.evaluate reuses a backbone's reference features across calls, and
the workload keeps one backbone for all its ops, so every op after the
first scores against the memoised reference. bench/ is imported read-only.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def test_evaluate_op_checksum_is_the_same_warm_as_cold():
    work = workloads.Evaluate(1)
    op0, op1 = work.inputs(0), work.inputs(1)
    cold = work.output_bytes(work.op(op0))
    work.op(op1)
    warm = work.output_bytes(work.op(op0))
    assert warm == cold
