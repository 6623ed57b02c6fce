"""The benchmark's output contract, checked on a one-second run of each workload.

perfbench/run.py must exit 0, write nothing to stderr, and end its stdout
in one strict-JSON result line that reports a correct run with no failed
operation and every end-to-end metric BENCHMARK.json declares; a traced run
also reports the L-BFGS layer counts.  A library
message or a warning that reaches the output, a non-finite metric, or a
failed check (which empties the metrics) each breaks that line.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def _one_second_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    tail = "\n".join(proc.stdout.splitlines()[-5:])
    assert proc.returncode == 0, (proc.stderr, tail)
    assert proc.stderr == "", tail
    try:
        result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    except (IndexError, ValueError) as exc:
        pytest.fail(f"no strict-JSON last line ({exc}); the last stdout lines were:\n{tail}")
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_second_run_ends_in_a_strict_json_result(workload):
    result = _one_second_result(workload, trace=0)
    for metric in BENCHMARK["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        assert math.isfinite(value) and value >= 0, (metric["name"], value)


def test_traced_run_counts_lbfgs_spans():
    # a traced run is correct only if every required span (lbfgs.minimize_box
    # among them on group-tall) saw a call and the lbfgs.minimize spans of the
    # solves add up to the (iterations, nfev) the solves report
    metrics = _one_second_result("group-tall", trace=1)["metrics"]
    assert metrics["lbfgs.nfev"]["value"] >= metrics["lbfgs.iters"]["value"] > 0
