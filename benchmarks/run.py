"""cpzsim benchmark: three CLI workloads, end-to-end metrics, traced per-module breakdown.

Usage (from the repository root):

    python3 benchmarks/run.py --workload simulate_uniform --seed 1 --seconds 30 --trace 0

Each sample is one fresh Python process running the `cpzsim` CLI entry
point (`cpzsim.cli.main`) on inputs generated from --seed; samples repeat
until --seconds have passed. With --trace 0 the last stdout line carries
the end-to-end metrics listed in BENCHMARK.json: medians over samples of
their times scaled by the reference kernel (reference.py) timed before and
after each sample. With --trace 1 untraced and traced samples alternate on
the fixed golden input, and the line carries the per-layer metrics
instead: calls and self times per module function, exact-repeat counters,
the tracing overhead and whether the outputs match the golden digests.

Every sample's outputs are checked (see checks.py); a sample fails on a
non-zero exit or a failed check and counts in `failed`.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Seed of the golden input; trace runs measure this input so their counters
# and digests compare across runs whatever --seed is.
GOLDEN_SEED = 0
MIN_SAMPLES = 3
# A sample still running after this long is killed and counts as failed.
SAMPLE_TIMEOUT_S = 120
# Nominal run time of reference.py. Untraced times are reported as
# raw * REF_NOMINAL_S / (reference time around the sample): seconds on a
# machine running the reference in REF_NOMINAL_S.
REF_NOMINAL_S = 0.4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# K x K solves with K = 10 gain nothing from BLAS threads, and the sweep
# already runs nproc Python threads; one BLAS thread keeps the total at or
# below nproc so the timings measure the program, not the scheduler.
BLAS_THREADS = "1"

# Monte Carlo size of `verify`'s Wishart check (fixed in cpzsim.cli).
VERIFY_K, VERIFY_M = 10, 200

SWEEP_VALUES = [1, 2, 3, 6, 9, 18, 36]


def default_scenario(seed: int, n_trials: int) -> dict:
    """The default scenario, spelled out so later default changes do not move the workload."""
    return {
        "grid": {"n_annuli": 3, "n_sectors": 18, "cell_radius": 1000.0},
        "budget": {"path_gain_g": 1.0, "r0": 100.0, "alpha": 3.7, "shadow_sigma_db": 8.0,
                   "noise_n0": 2e-14, "bandwidth": 5e6, "cell_radius_r": 1000.0},
        "k_users": 10,
        "m_antennas": 200,
        "rate_target": 2e7,
        "placement": {"kind": "uniform_disk"},
        "shadowing": {"kind": "deterministic_unit"},
        "seed": seed,
        "n_trials": n_trials,
    }


@dataclass
class Inputs:
    argv: list[str]
    units: int
    config: dict | None = None
    threads: int = 1
    # reference.py kernel whose instruction mix matches the workload.
    reference: str = "python"


def simulate_uniform(seed: int, work: str) -> Inputs:
    cfg = default_scenario(seed, 10_000)
    return Inputs(["simulate", "--config", os.path.join(work, "config.json"),
                   "--workers", "1", "--out", os.path.join(work, "out.csv")],
                  cfg["n_trials"], cfg)


def sweep_sectors_lognormal(seed: int, work: str) -> Inputs:
    cfg = default_scenario(seed, 1000)
    cfg["placement"] = {"kind": "arc_cluster", "sector_count_occupied": 1, "annulus": 2}
    # Its own seed, so shadowing and placement never share a stream.
    cfg["shadowing"] = {"kind": "lognormal", "sigma_db": 8.0, "seed": seed + 1}
    return Inputs(["sweep", "--config", os.path.join(work, "config.json"),
                   "--variable", "sectors", "--values", ",".join(map(str, SWEEP_VALUES)),
                   "--workers", "2", "--out", os.path.join(work, "out.csv")],
                  len(SWEEP_VALUES) * cfg["n_trials"], cfg, threads=2)


def verify(seed: int, work: str) -> Inputs:
    return Inputs(["verify", "--trials", "10000", "--seed", str(seed)], 10_000,
                  reference="linalg")


WORKLOADS = {
    "simulate_uniform": simulate_uniform,
    "sweep_sectors_lognormal": sweep_sectors_lognormal,
    "verify": verify,
}


@dataclass
class Sample:
    ok: bool
    problems: list[str]
    wall_s: float
    setup_s: float
    units: int
    peak_rss_mib: float
    # Machine-speed factor from the reference runs around the sample.
    scale: float = 1.0
    report: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    @property
    def trials_per_s(self) -> float:
        return self.units / (self.wall_s - self.setup_s)

    def scaled(self) -> dict[str, float]:
        return {
            "wall_s": self.wall_s * self.scale,
            "setup_s": self.setup_s * self.scale,
            "trials_per_s": self.trials_per_s / self.scale,
            "peak_rss_mib": self.peak_rss_mib,
        }


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CPZ_SIM_SEED", None)
    env.update({name: BLAS_THREADS for name in BLAS_THREAD_VARS})
    return env


def run_reference(kind: str) -> float:
    """Mean wall seconds of reference.py, run at once on each CPU a sample may use."""
    t_spawn = _clock_ns()
    procs = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        proc = subprocess.Popen([sys.executable, REFERENCE, str(cpu), kind], env=child_env(),
                                stdout=subprocess.DEVNULL)
        procs[proc.pid] = proc
    walls = []
    try:
        while len(walls) < len(procs):
            # Any child: record each run's own end, in the order they finish.
            pid, status = os.wait()
            walls.append((_clock_ns() - t_spawn) / 1e9)
            procs[pid].returncode = os.waitstatus_to_exitcode(status)
    finally:
        for proc in procs.values():
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if any(proc.returncode != 0 for proc in procs.values()):
        raise RuntimeError("reference kernel failed")
    return sum(walls) / len(walls)


def run_sample(workload: str, seed: int, work: str, spans_path: str | None = None) -> Sample:
    """Run one sample in a fresh process and check its outputs."""
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    inputs = WORKLOADS[workload](seed, work)
    if inputs.config is not None:
        with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(inputs.config, fh)
    result_path = os.path.join(work, "child.json")
    argv = [sys.executable, CHILD, result_path, spans_path or "-", "--", *inputs.argv]
    with open(os.path.join(work, "stdout.txt"), "wb") as out, \
            open(os.path.join(work, "stderr.txt"), "wb") as err:
        t_spawn = _clock_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=child_env())
        watchdog = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4, not proc.wait: it also returns the child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t_exit = _clock_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)

    problems = []
    report = {}
    if proc.returncode != 0:
        with open(os.path.join(work, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            problems.append(f"exit code {proc.returncode}: {fh.read()[-2000:]}")
    else:
        with open(result_path, encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("ready_ns") is None:
            problems.append("the command never reached its first trial")
        if not report["cpzsim_file"].startswith(os.path.join(ROOT, "src", "")):
            problems.append(f"imported cpzsim from {report['cpzsim_file']}, not this checkout")
    counters: dict = {}
    digests: dict = {}
    if not problems:
        csv_path = os.path.join(work, "out.csv")
        sidecar = os.path.join(work, "out.json")
        if workload == "simulate_uniform":
            found, counters = checks.check_simulate(inputs.config, csv_path)
        elif workload == "sweep_sectors_lognormal":
            found, counters = checks.check_sweep_sectors(inputs.config, SWEEP_VALUES,
                                                         csv_path, sidecar)
        else:
            with open(os.path.join(work, "stdout.txt"), encoding="utf-8") as fh:
                found, counters = checks.check_verify(fh.read())
        problems.extend(found)
        digests = {name: checks.sha256_file(os.path.join(work, name))
                   for name in ("out.csv", "out.json", "stdout.txt")}
    ready = report.get("ready_ns") or t_spawn
    return Sample(
        ok=not problems,
        problems=problems,
        wall_s=(t_exit - t_spawn) / 1e9,
        setup_s=(ready - t_spawn) / 1e9,
        units=inputs.units,
        peak_rss_mib=(report.get("peak_rss_kib") or usage.ru_maxrss) / 1024.0,
        report=report,
        counters=counters,
        digests=digests,
    )


def self_times(spans):
    """Per-span self time in ns: duration minus the union of its children's intervals.

    Children of one parent may overlap when they ran on different pool
    threads, so the covered part is the union, not the sum, of their spans.
    """
    import numpy as np

    sid, parent, t0, t1 = spans[:, 0], spans[:, 1], spans[:, 3], spans[:, 4]
    order = np.lexsort((t0, parent))
    p, s, e = parent[order], t0[order], t1[order]
    first = np.r_[True, p[1:] != p[:-1]]
    group = np.cumsum(first) - 1
    base = int(s.min())
    width = int(e.max()) - base + 1
    # Offsetting each parent's group makes one cumulative max a per-group running max.
    offset = group * width
    running = np.maximum.accumulate(e - base + offset) - offset + base
    prev_end = np.r_[base, running[:-1]]
    prev_end[first] = base
    covered = np.maximum(0, e - np.maximum(s, prev_end))
    child_cover = np.bincount(p, weights=covered, minlength=int(sid.max()) + 1)
    return (t1 - t0) - child_cover[sid]


def layer_metrics(report: dict, spans_path: str) -> dict[str, float]:
    """Calls and self seconds per span name, plus the distinct-ratio counters.

    Self times are net of the tracer's calibrated cost: each span loses the
    part inside its own interval and, per child, the part outside the
    child's interval that the parent would otherwise absorb.
    """
    import numpy as np

    spans = np.load(spans_path)
    names = report["span_names"]
    cost = report["span_cost"]
    children = np.bincount(spans[:, 1], minlength=int(spans[:, 0].max()) + 1)[spans[:, 0]]
    own = self_times(spans) - cost["inside_ns"] - children * cost["outside_ns"]
    calls = np.bincount(spans[:, 2], minlength=len(names))
    self_ns = np.bincount(spans[:, 2], weights=own, minlength=len(names))
    out = {
        "trace.spans": int(len(spans)),
        "trace.self_s_sum": float(own.sum()) / 1e9,
        "trace.span_cost_ns": cost["inside_ns"] + cost["outside_ns"],
    }
    for i, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_ns[i]) / 1e9
    for name, distinct in report["distinct"].items():
        total = out.get(f"{name}.calls", 0)
        ratio = "useful_ratio" if name == "sim.place_ues" else "distinct_ratio"
        out[f"{name}.{ratio}"] = distinct / total if total else 0.0
    out["schemes.guard_trips"] = sum(n for key, n in report["errors"].items()
                                     if key.startswith("schemes.evaluate_scheme."))
    return out


def mimo_computed(calls: int) -> dict[str, float]:
    """Computed (not measured) work of one monte_carlo_trace trial at K x M.

    flops: Gram 8K^2M, ZF solve's triangular sweeps over M right-hand sides
    8K^2M, LU and singular values of the K x K Gram ~21K^3, entry draw and
    three vdots ~30KM. bytes: complex128/float64 arrays each numpy step reads
    and writes: draw 112KM, Gram 64KM + 16K^2, cond 16K^2, solve 32KM + 16K^2,
    conjugate transpose 32KM, two vdots 32KM.
    """
    if not calls:
        return {"mimo.flops_computed_per_trial": 0, "mimo.bytes_computed_per_trial": 0}
    k, m = VERIFY_K, VERIFY_M
    return {
        "mimo.flops_computed_per_trial": 16 * k * k * m + 21 * k ** 3 + 30 * k * m,
        "mimo.bytes_computed_per_trial": 272 * k * m + 48 * k * k,
    }


def manifest() -> dict:
    def git_commit():
        if not os.path.exists(os.path.join(ROOT, ".git")):
            return None
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() or None

    sources = os.path.join(ROOT, "src", "cpzsim")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(sources)):
        if name.endswith(".py"):
            with open(os.path.join(sources, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "sample_cpus": sorted(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "blas_env_child": {name: BLAS_THREADS for name in BLAS_THREAD_VARS},
    }


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """Medians over the successful samples of their speed-scaled values."""
    scaled = [s.scaled() for s in samples if s.ok]
    return {key: median([v[key] for v in scaled]) for key in scaled[0]}


def traced_metrics(workload: str, pairs: list[tuple[Sample, Sample, dict]]) -> tuple[dict, list]:
    """Per-layer metrics from (untraced, traced, layer metrics) pairs on the golden input."""
    notes = []
    layers = [m for _, t, m in pairs if t.ok]
    untraced = [u for u, _, _ in pairs if u.ok]
    traced = [t for _, t, _ in pairs if t.ok]
    if not layers or not untraced:
        return {}, ["no successful traced pair"]
    out = {}
    for key in layers[0]:
        values = [m.get(key, 0) for m in layers]
        if key.endswith(".self_s") or key in ("trace.self_s_sum", "trace.span_cost_ns"):
            out[key] = median(values)
        else:
            out[key] = values[0]
            if any(v != values[0] for v in values):
                notes.append(f"counter {key} varies between traced samples: {values}")
    first = traced[0]
    out.update(first.counters)
    out["sim.trials"] = first.units
    out["rng.substream.calls_per_unit"] = out.get("rng.substream.calls", 0) / first.units
    out.update(mimo_computed(out.get("mimo.monte_carlo_trace.calls", 0)))
    untraced_wall = median([u.wall_s for u in untraced])
    untraced_busy = median([u.wall_s - u.setup_s for u in untraced])
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = median([t.wall_s for t in traced])
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - untraced_wall
    out["trace.self_share_of_untraced"] = out["trace.self_s_sum"] / untraced_busy

    seen = {json.dumps(s.digests, sort_keys=True) for s in untraced + traced}
    if len(seen) != 1:
        notes.append("outputs differ between samples of the same input")
    golden = load_golden().get(workload)
    out["golden.match"] = int(seen == {json.dumps(golden, sort_keys=True)})
    return out, notes


def load_golden() -> dict:
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(spec_metrics: list[dict], values: dict, samples: list[Sample]) -> dict:
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in spec_metrics}
    failed = sum(1 for s in samples if not s.ok)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def preflight() -> str | None:
    """Import the package once (also compiles bytecode); None when it works."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cpzsim", "__init__.py")):
        return f"no cpzsim sources under {os.path.join(ROOT, 'src')}"
    probe = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                            "import cpzsim.cli", os.path.join(ROOT, "src")],
                           capture_output=True, text=True, env=child_env(), timeout=120)
    if probe.returncode != 0:
        return f"cannot import cpzsim: {probe.stderr[-2000:]}"
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: str):
    """Samples until `seconds` have passed; in trace mode, (untraced, traced) pairs.

    A single-threaded workload runs pinned to one CPU, and the reference
    runs on each CPU the sample may use: each CPU of a shared host changes
    speed on its own, so the reference tracks a sample only on its CPUs.
    """
    work = os.path.join(scratch, workload)
    os.mkdir(work)
    inputs = WORKLOADS[workload](seed, work)
    if inputs.threads == 1:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spans_path = os.path.join(scratch, "spans.npy")
    start = time.monotonic()
    seeds = random.Random(f"{workload}:{seed}")
    samples: list[Sample] = []
    pairs = []
    refs = [] if trace else [run_reference(inputs.reference)]
    while time.monotonic() - start < seconds or len(samples) < (2 if trace else MIN_SAMPLES):
        if trace:
            untraced = run_sample(workload, GOLDEN_SEED, work)
            traced = run_sample(workload, GOLDEN_SEED, work, spans_path)
            pairs.append((untraced, traced,
                          layer_metrics(traced.report, spans_path) if traced.ok else {}))
            samples += [untraced, traced]
        else:
            sample = run_sample(workload, seeds.randrange(2**31), work)
            refs.append(run_reference(inputs.reference))
            sample.scale = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
            samples.append(sample)
    return samples, pairs


def write_golden(scratch: str) -> int:
    golden = {}
    for name in WORKLOADS:
        work = os.path.join(scratch, name)
        os.mkdir(work)
        sample = run_sample(name, GOLDEN_SEED, work)
        if not sample.ok:
            print(f"{name}: {sample.problems}", file=sys.stderr)
            return 1
        golden[name] = sample.digests
    golden["_note"] = (f"sha256 of each workload's CSV, sweep sidecar and stdout at seed "
                       f"{GOLDEN_SEED}; data, not a gate")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


def print_report(workload: str, args, spec: dict, samples: list[Sample], pairs: list) -> dict | None:
    """Print the human-readable report; return the result object, or None if nothing ran."""
    good = [s for s in samples if s.ok]
    if not good:
        for s in samples:
            print(f"sample failed: {s.problems}", file=sys.stderr)
        return None
    print(f"== {workload}")
    for s in samples:
        if not s.ok:
            print(f"FAILED sample: {'; '.join(s.problems)}")
    if args.trace:
        values, notes = traced_metrics(workload, pairs)
        for note in notes:
            print(f"note: {note}")
        spec_metrics = spec["per_layer"]
    else:
        values = end_to_end(samples)
        spec_metrics = spec["end_to_end"]
        print("raw (unscaled) samples; metrics below are scaled by `scale`")
        print(f"{'sample':>6} {'wall_s':>8} {'setup_s':>8} {'trials/s':>10} {'rss_MiB':>8} "
              f"{'scale':>6}  ok")
        for i, s in enumerate(samples):
            print(f"{i:>6} {s.wall_s:8.3f} {s.setup_s:8.3f} {s.trials_per_s:10.1f} "
                  f"{s.peak_rss_mib:8.1f} {s.scale:6.3f}  {s.ok}")
    values["failed_fraction"] = sum(1 for s in samples if not s.ok) / len(samples)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_fraction"] = "fraction"
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {units.get(name, '')}")
    info = manifest()
    info.update({k: good[0].report.get(k) for k in
                 ("python_version", "numpy_version", "cpzsim_version", "cpzsim_file")})
    info.update({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "samples": len(samples)})
    print("manifest: " + json.dumps(info, sort_keys=True))
    return result_line(spec_metrics, values, samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the golden output digests and exit")
    args = parser.parse_args()
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")

    # On SIGTERM, unwind through the finally blocks that stop the sample and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    problem = preflight()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        if args.write_golden:
            return write_golden(scratch)
        results = {}
        cpus = os.sched_getaffinity(0)
        for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
            os.sched_setaffinity(0, cpus)
            samples, pairs = measure(workload, args.seed, args.seconds, bool(args.trace), scratch)
            results[workload] = print_report(workload, args, spec, samples, pairs)
            if results[workload] is None:
                return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
