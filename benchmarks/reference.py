"""Fixed reference kernels that time the machine, not the program.

Usage: python3 reference.py CPU KIND

It pins itself to CPU, imports numpy and runs a short fixed loop without
importing cpzsim. KIND `python` mixes small numpy draws with Python
arithmetic, like a cpzsim scheme trial; KIND `linalg` draws small complex
matrices and takes a Gram matrix, its condition number and a solve, like a
`verify` Monte Carlo trial. run.py times the kind that matches the
workload on each CPU a sample may use, before and after every untraced
sample, and scales the sample's times by how fast those CPUs ran around
it. That cancels the speed drift a shared host shows over seconds to
minutes. Do not change it: every recorded end-to-end number is relative
to it.
"""

import math
import os
import sys

os.sched_setaffinity(0, {int(sys.argv[1])})

import numpy as np  # noqa: E402

rng = np.random.default_rng(1)
total = 0.0
if sys.argv[2] == "python":
    for _ in range(20_000):
        total += math.fsum(float(v) ** 0.5 for v in rng.random(10))
else:
    for _ in range(1_000):
        h = rng.standard_normal((10, 200)) + 1j * rng.standard_normal((10, 200))
        gram = h @ h.conj().T
        total += float(np.linalg.cond(gram)) + float(np.linalg.solve(gram, h).real.sum())
if not math.isfinite(total):
    raise SystemExit(1)
