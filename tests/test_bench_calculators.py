"""The benchmark's calculators workload passes its own output checks, in this process.

``bench/workloads.py`` builds the workload's calls for a seed and checks
each call's records against its stored reference values; at the smoke
size every call of seeds 0-7 must find no failed operation.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(8))
def test_calculators_smoke_pass_has_no_failed_operation(tmp_path, seed):
    workloads = _workloads()
    calls = workloads.build("calculators", "smoke", seed, tmp_path)
    reference = workloads.load_reference("calculators", "smoke", seed)
    failed = {}
    for call in calls:
        try:
            raw, error = call.run(), None
        except Exception as exc:  # a failure is counted, as in a benchmark pass
            raw, error = None, repr(exc)
        failed[call.key] = workloads.check_call(call, raw, error, reference.get(call.key, []))
    assert set(failed) == set(reference)
    assert sum(failed.values()) == 0, failed
