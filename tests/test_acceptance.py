"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import math
from contextlib import contextmanager

import numpy as np

from cpzsim import cli, mimo
from cpzsim.partition import PartitionGrid, UePosition
from cpzsim.propagation import LinkBudget
from cpzsim.schemes import SCHEME_ORDER, SchemeKind, evaluate_scheme
from cpzsim.sim import (
    ArcCluster,
    FixedPlacement,
    ScenarioConfig,
    build_state,
    format_records_csv,
    place_ues,
    run_comparison,
    sweep_distance,
    sweep_sectors,
)

from oracle import per_ue_rates

GRID = PartitionGrid(3, 18, 1000.0)
BUDGET = LinkBudget()
TARGET = 20e6
K, M = 10, 200
TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def test_c1_wishart_trace_convergence():
    with criterion(1, "inverse-Gram trace mean within 5 standard errors of K/(M-K) at 1e4 trials"):
        expected = mimo.wishart_trace_expectation(K, M)
        mean, std = mimo.monte_carlo_trace(K, M, n_trials=10_000, seed=0)
        assert abs(mean - expected) < 5.0 * std / math.sqrt(10_000)


def test_c2_zero_forcing_identity():
    with criterion(2, "|HW - I| < 1e-9 on 100 channels across K in {2,8,32}, M in {16,64,200}"):
        dims = [(k, m) for k in (2, 8, 32) for m in (16, 64, 200) if k < m]
        seed = 0
        checked = 0
        worst = 0.0
        while checked < 100:
            k, m = dims[checked % len(dims)]
            h = mimo.sample_channel(k, m, seed=10_000 + seed)
            seed += 1
            w = mimo.zf_beamformer(h)
            worst = max(worst, float(np.max(np.abs(h.entries @ w.entries - np.eye(k)))))
            checked += 1
        assert worst < 1e-9


def test_c3_closed_form_rate_vs_monte_carlo():
    # The closed form is f(mu) for the per-trace sum rate f(T) = K*B*log2(1 + rho*K/T)
    # at the trace mean mu = K/(M-K): Jensen's bound on the Monte Carlo mean, below it
    # by about f''(mu)*s^2/2 (the delta method, s^2 the traces' sample variance).
    # The gate is 5 standard errors of the Monte Carlo mean around that corrected value.
    with criterion(3, "closed-form sum rate within 5 standard errors of 2000-draw Monte Carlo, "
                      "Jensen gap removed, at rho in {0.01,0.1,1}"):
        traces = []
        for i in range(2000):
            h = mimo.sample_channel(K, M, seed=500_000 + i)
            traces.append(float(np.trace(np.linalg.inv(h.entries @ h.entries.conj().T)).real))
        mu = K / (M - K)
        s2 = np.var(traces, ddof=1)
        for rho in (0.01, 0.1, 1.0):
            c = rho * K
            rates = [K * BUDGET.bandwidth * math.log2(1.0 + c / trace) for trace in traces]
            mc = math.fsum(rates) / 2000
            closed = mimo.sum_rate_closed_form(K, M, rho, BUDGET.bandwidth)
            curvature = K * BUDGET.bandwidth / math.log(2) * c * (2 * mu + c) / (mu * (mu + c)) ** 2
            se = np.std(rates, ddof=1) / math.sqrt(2000)
            z = (mc - closed - 0.5 * curvature * s2) / se
            assert abs(z) < 5.0, (rho, z)


def test_c4_scheme_ordering_without_violations():
    with criterion(4, "P_cpz <= P_zoom <= P_max in 1000 uniform-disk scenarios, exactly"):
        config = ScenarioConfig(seed=404, n_trials=1000)
        violations = 0
        for trial in range(config.n_trials):
            state = build_state(GRID, place_ues(config, trial))
            p_max, p_zoom, p_cpz = (evaluate_scheme(kind, state, BUDGET, TARGET, K, M).total_power
                                    for kind in SCHEME_ORDER)
            if not (p_cpz <= p_zoom <= p_max):
                violations += 1
        assert violations == 0


def test_c5_angular_fraction_and_ee_ratio():
    with criterion(5, "single-sector cluster: P_cpz/P_zoom = 1/18 (1e-12), EE ratio 18 (1e-9)"):
        rng = np.random.default_rng(55)
        width = TWO_PI / 18
        positions = [
            UePosition(float(rng.uniform(150.0, 1000.0)), float(rng.uniform(0, width)))
            for _ in range(10)
        ]
        state = build_state(GRID, positions)
        zoom = evaluate_scheme(SchemeKind.ZOOMING, state, BUDGET, TARGET, K, M)
        cpz = evaluate_scheme(SchemeKind.CPZ, state, BUDGET, TARGET, K, M)
        assert cpz.sum_rate == zoom.sum_rate  # rates match
        assert abs(cpz.total_power / zoom.total_power - 1.0 / 18.0) * 18.0 < 1e-12
        assert abs(cpz.ee / zoom.ee - 18.0) / 18.0 < 1e-9


def test_c6_sleep_mode():
    with criterion(6, "empty cell: zooming and cpz power exactly 0, EE undefined"):
        state = build_state(GRID, [])
        for kind in (SchemeKind.ZOOMING, SchemeKind.CPZ):
            report = evaluate_scheme(kind, state, BUDGET, TARGET, K, M)
            assert report.total_power == 0.0
            assert report.ee is None
        config = ScenarioConfig(placement=FixedPlacement(()), n_trials=1)
        for line in format_records_csv({None: run_comparison(config)}).splitlines()[1:]:
            fields = line.split(",")
            if fields[1] in ("zooming", "cpz"):
                assert fields[3] == "0.0" and fields[5] == ""


def test_c7_edge_rate_guarantee_across_sweeps():
    with criterion(7, "every served UE's modeled rate >= 20 Mb/s (1e-9 relative) across sweeps"):
        floor = TARGET * (1 - 1e-9)

        def check_state(state):
            for kind in SCHEME_ORDER:
                for rate in per_ue_rates(kind, state, BUDGET, TARGET, K, M).values():
                    assert rate >= floor

        # Distance sweep states: one user pinned at each distance.
        for d in np.linspace(BUDGET.r0, BUDGET.cell_radius_r, 19):
            check_state(build_state(GRID, [UePosition(float(d), 0.0)]))

        # Sector sweep states: a clustered user set under each granularity.
        counts = (1, 2, 6, 9, 18)
        cluster_cfg = ScenarioConfig(
            placement=ArcCluster(sector_count_occupied=1, annulus=2), seed=7, n_trials=5)
        for trial in range(cluster_cfg.n_trials):
            positions = place_ues(cluster_cfg, trial)
            for count in counts:
                grid = PartitionGrid(3, count, 1000.0)
                check_state(build_state(grid, positions))


def test_c8_ee_monotone_in_sector_count():
    with criterion(8, "EE nondecreasing over sector counts {1,2,6,9,18} for a one-sector cluster"):
        config = ScenarioConfig(seed=88, n_trials=5)
        run = sweep_sectors(config, [1, 2, 6, 9, 18])
        ees = [row.mean_ee for row in run.rows if row.scheme is SchemeKind.CPZ]
        assert len(ees) == 5
        assert all(ee is not None for ee in ees)
        assert all(a <= b for a, b in zip(ees, ees[1:]))


def test_c9_reproducibility_across_worker_pools(tmp_path):
    with criterion(9, "simulate and sweep CSVs byte-identical at worker pools 1 and 8"):
        sim_args = ["simulate", "--seed", "9", "--trials", "24"]
        sweep_args = ["sweep", "--variable", "distance", "--values",
                      "250,500,750,1000", "--seed", "9", "--trials", "6"]
        outputs = {}
        for label, base in (("sim", sim_args), ("sweep", sweep_args)):
            for workers in (1, 8):
                out = tmp_path / f"{label}_{workers}.csv"
                code = cli.main(base + ["--workers", str(workers), "--out", str(out)])
                assert code == 0
                outputs[(label, workers)] = out.read_bytes()
        assert outputs[("sim", 1)] == outputs[("sim", 8)]
        assert outputs[("sweep", 1)] == outputs[("sweep", 8)]
        # And the sweep JSON documents agree as well.
        assert (tmp_path / "sweep_1.json").read_bytes() == (tmp_path / "sweep_8.json").read_bytes()
