"""Smoke test of the benchmark's per-sample child with tracing on.

benchmarks/child.py wraps the functions it lists by name and stamps the
first call into the CLI's trial entry points. A refactor that renames a
traced function, or a CLI that stops calling its entry points through its
module globals, breaks `--trace 1` or the set-up time; each run here must
exit 0 and record when its first trial was ready, and verify must record
its zero-forcing calls.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "child.py")


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", "3", "--out", "simulate.csv"],
    ["sweep", "--variable", "sectors", "--values", "1,2", "--trials", "2", "--out", "sweep.csv"],
    ["verify", "--trials", "100"],
], ids=lambda argv: argv[0])
def test_traced_child_runs_and_stamps_first_trial(tmp_path, argv):
    result = tmp_path / "result.json"
    spans = tmp_path / "spans.npy"
    proc = subprocess.run([sys.executable, CHILD, str(result), str(spans), "--", *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["ready_ns"] is not None
    assert spans.exists()
    if argv[0] == "verify":
        # verify's ZF and SINR checks reach the ZF core through the traced name.
        zf = report["span_names"].index("mimo.zf_beamformer")
        assert (np.load(spans)[:, 2] == zf).sum() >= 1
