"""Smoke run of the benchmark harness: every workload, traced, once.

It checks that ``bench/run.py`` still runs against the library and the CLI,
including the names its worker reaches by attribute and patches, and that
the run reports ``correct``. It never gates on wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.bench
def test_traced_run_of_every_workload_reports_correct():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
