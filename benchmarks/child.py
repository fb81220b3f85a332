"""One benchmark sample: run the cpzsim CLI in this fresh process.

Usage: python3 child.py RESULT_JSON SPANS_FILE|- -- <cpzsim argv...>

The program is imported from the checkout's `src/` and driven through
`cpzsim.cli.main`, the function behind the `cpzsim` console script. The
moment the command's first trial is ready (the first call into
`run_comparison`, `sweep_sectors` or `run_verification`) is stamped on
CLOCK_MONOTONIC, which the parent shares, so the parent can split the
sample's wall time into set-up and trial work.

With a spans file, every public function listed in TRACED is wrapped in
this process, without touching the package's sources: each call records a
span (id, parent id, name id, start ns, end ns). Parents are tracked per
thread, and tasks submitted to the sweep's thread pool carry the span that
submitted them, so self time can be computed across threads. Spans stay in
memory and are written once, after the command returns.
"""

import functools
import itertools
import json
import os
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import cpzsim  # noqa: E402
from cpzsim import cli, mimo, partition, propagation, rng, schemes, sim  # noqa: E402

MODULES = (rng, sim, partition, propagation, schemes, mimo, cli)

# Functions the first trial waits for; their first call ends set-up.
ENTRY_POINTS = ("run_comparison", "sweep_sectors", "run_verification")

# (span name, owner, attribute). Module-level functions are rebound in every
# cpzsim module that imported them by name; methods are rebound on the class.
TRACED = (
    ("rng.substream", rng, "substream"),
    ("sim.place_ues", sim, "place_ues"),
    ("sim.build_state", sim, "build_state"),
    ("sim.run_comparison", sim, "run_comparison"),
    ("sim.sweep_sectors", sim, "sweep_sectors"),
    ("sim.format_records_csv", sim, "format_records_csv"),
    ("sim.write_records_csv", sim, "write_records_csv"),
    ("sim.write_sweep_json", sim, "write_sweep_json"),
    ("partition.CpzState.join", partition.CpzState, "join"),
    ("partition.CpzState.coverage_requirements", partition.CpzState, "coverage_requirements"),
    ("schemes.evaluate_scheme", schemes, "evaluate_scheme"),
    ("propagation.required_bs_power", propagation, "required_bs_power"),
    ("propagation.snr_rho", propagation, "snr_rho"),
    ("propagation.LognormalShadowing.psi", propagation.LognormalShadowing, "psi"),
    ("mimo.per_ue_rate", mimo, "per_ue_rate"),
    ("mimo.monte_carlo_trace", mimo, "monte_carlo_trace"),
    ("mimo.zf_beamformer", mimo, "zf_beamformer"),
    ("mimo.sample_channel", mimo, "sample_channel"),
    ("cli.load_config", cli, "load_config"),
    ("cli.run_verification", cli, "run_verification"),
)


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        # Distinct results or arguments per observed function, and errors raised.
        self.distinct: dict[str, set] = {}
        self.errors: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _state(self):
        local = self._local
        if not hasattr(local, "buf"):
            local.buf = array("q")
            local.parent = 0
            with self._lock:
                self._buffers.append(local.buf)
        return local

    def current(self) -> int:
        return self._state().parent

    def span(self, fn, name: str, parent: int | None = None, variant=None, observe=None):
        """Wrap fn so each call records a span; `parent` pins a cross-thread parent."""
        base = self.name_id(name) if variant is None else None
        by_variant: dict = {}
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = base
            if variant is not None:
                key = variant(args)
                nid = by_variant.get(key)
                if nid is None:
                    nid = by_variant[key] = self.name_id(f"{name}.{key}")
            try:
                buf = local.buf
            except AttributeError:
                buf = self._state().buf
            outer = local.parent
            sid = next(ids)
            local.parent = sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                with self._lock:
                    key = f"{self.names[nid]}.{type(exc).__name__}"
                    self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                t1 = clock()
                local.parent = outer
                buf.extend((sid, outer if parent is None else parent, nid, t0, t1))
            if observe is not None:
                self.distinct.setdefault(name, set()).add(observe(args, result))
            return result

        return traced

    def spans(self) -> np.ndarray:
        with self._lock:
            flat = np.concatenate([np.frombuffer(b, dtype=np.int64) for b in self._buffers]
                                  or [np.zeros(0, dtype=np.int64)])
        return flat.reshape(-1, 5)


def calibrate(rounds: int = 5, calls: int = 20_000) -> dict[str, float]:
    """The tracer's own cost per span, in ns: inside [start, end] and outside it.

    The inside part inflates a span's duration; the outside part (the
    wrapper's work before start and after end) lands in its parent's self
    time. Medians over a few rounds of wrapped no-op calls.
    """
    def noop():
        pass

    clock = time.perf_counter_ns
    inside, outside = [], []
    for _ in range(rounds):
        probe = Tracer()
        wrapped = probe.span(noop, "probe")
        t0 = clock()
        for _ in range(calls):
            noop()
        bare = (clock() - t0) / calls
        t0 = clock()
        for _ in range(calls):
            wrapped()
        traced = (clock() - t0) / calls
        spans = probe.spans()
        span_in = float((spans[:, 4] - spans[:, 3]).mean()) - bare
        inside.append(span_in)
        outside.append(traced - bare - span_in)
    return {"inside_ns": sorted(inside)[rounds // 2], "outside_ns": sorted(outside)[rounds // 2]}


def _rebind(owner, attr: str, wrapped, original) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    for module in MODULES:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _user_set(args, result):
    return tuple((p.r, p.phi) for p in result)


def _arguments(args, result):
    # (d, rate_target, K, M); the budget is one object per workload.
    return args[:4]


def install_tracer(tracer: Tracer) -> None:
    observers = {"sim.place_ues": _user_set, "propagation.required_bs_power": _arguments}
    for name, owner, attr in TRACED:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        variant = (lambda args: args[0].value) if name == "schemes.evaluate_scheme" else None
        wrapped = tracer.span(original, name, variant=variant, observe=observers.get(name))
        _rebind(owner, attr, wrapped, original)

    # numpy.linalg as mimo calls it: mimo gets its own numpy proxy.
    class _Linalg:
        cond = staticmethod(tracer.span(np.linalg.cond, "mimo.linalg.cond"))
        solve = staticmethod(tracer.span(np.linalg.solve, "mimo.linalg.solve"))

        def __getattr__(self, attr):
            return getattr(np.linalg, attr)

    class _Numpy:
        linalg = _Linalg()

        def __getattr__(self, attr):
            return getattr(np, attr)

    mimo.np = _Numpy()

    class _TracedPool(ThreadPoolExecutor):
        """Pool whose tasks are spans parented by the span that submitted them."""

        def submit(self, fn, /, *args, **kwargs):
            task = tracer.span(fn, "sim.pool_task", parent=tracer.current())
            return super().submit(task, *args, **kwargs)

    sim.ThreadPoolExecutor = _TracedPool


def mark_first_trial(stamp: dict) -> None:
    """Stamp the first call into the command's trial loop (set-up ends there)."""
    for attr in ENTRY_POINTS:
        original = getattr(cli, attr)

        def marked(*args, _original=original, **kwargs):
            stamp.setdefault("ready_ns", _now())
            return _original(*args, **kwargs)

        setattr(cli, attr, marked)


def peak_rss_kib() -> int | None:
    """High-water RSS of this process image.

    Not ru_maxrss: exec after vfork carries the parent's high-water mark
    into the child's ru_maxrss, so a lean child would read as large as the
    benchmark process that spawned it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    result_path, spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON SPANS_FILE|- -- <cpzsim argv...>")
    stamp: dict = {}
    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        install_tracer(tracer)
        cli.main = tracer.span(cli.main, "cli.main")
    # Installed after the tracer, so the stamp wraps the traced entry points.
    mark_first_trial(stamp)
    rc = cli.main(cli_argv)
    sys.stdout.flush()
    report = {
        "ready_ns": stamp.get("ready_ns"),
        "peak_rss_kib": peak_rss_kib(),
        "cpzsim_file": cpzsim.__file__,
        "cpzsim_version": cpzsim.__version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
    }
    if tracer is not None:
        np.save(spans_path, tracer.spans())
        report["span_cost"] = calibrate()
        report["span_names"] = tracer.names
        report["distinct"] = {name: len(keys) for name, keys in tracer.distinct.items()}
        report["errors"] = tracer.errors
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
