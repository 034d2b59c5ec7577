"""The benchmark's traced runs wrap named library functions; a target that
no longer exists is reported absent and its per-layer metrics come out as
null. This guards the target list against renames and removals."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402  (needs bench/ on the path)


def test_every_layer_target_exists():
    _, missing = workloads.layer_tracer()
    assert missing == []
