"""README's Results paragraph, recomputed: every figure it quotes and its verdict.

The Monte Carlo figures come from `cpzsim simulate --trials 20000 --seed 7`
run in process; the rate ratios come from test_expectation's closed forms.
Each is rendered at the precision the paragraph quotes it with and must occur
in the paragraph, so a change that moves a figure has to move the README too.
"""

import os
import re

from cpzsim import cli
from cpzsim.partition import PartitionGrid
from cpzsim.propagation import DeterministicUnitShadowing
from cpzsim.sim import ScenarioConfig, UniformDisk

from test_expectation import rate_expectations

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
# cpz's closed-form sum rate below this share of zooming's is not a "negligible impact".
NEGLIGIBLE = 0.95


def results_paragraph():
    """The Results section of README.md with its line breaks folded into spaces."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Results\n", 1)[1].split("\n## ", 1)[0]
    return " ".join(section.split())


def simulated_means(capsys):
    """{scheme: (mean power W, mean EE bit/J)} as `simulate --trials 20000 --seed 7` prints."""
    assert cli.main(["simulate", "--trials", "20000", "--seed", "7"]) == 0
    lines = re.findall(r"^ *(\w+): mean power (\S+) W, mean EE (\S+) bit/J",
                       capsys.readouterr().out, re.MULTILINE)
    return {scheme: (float(power), float(ee)) for scheme, power, ee in lines}


def sci(x):
    """x as the paragraph writes it: four significant digits, no '+' in the exponent."""
    return f"{x:.3e}".replace("e+", "e")


def test_readme_results_match_a_seeded_run_and_the_closed_forms(capsys):
    text = results_paragraph()
    config = ScenarioConfig()
    assert "(the default scenario: 3 annuli x 18 sectors, K = 10, M = 200, unit shadowing)" in text
    assert (config.grid.n_annuli, config.grid.n_sectors, config.k_users, config.m_antennas) == \
        (3, 18, 10, 200)
    assert isinstance(config.placement, UniformDisk)
    assert isinstance(config.shadowing, DeterministicUnitShadowing)

    means = simulated_means(capsys)
    (zoom_power, zoom_ee), (cpz_power, cpz_ee) = means["zooming"], means["cpz"]
    quoted = [f"mean power of {sci(zoom_power)} W for zooming and {sci(cpz_power)} W for cpz",
              f"mean EE of {sci(zoom_ee)} and {sci(cpz_ee)} bit/J",
              f"cpz radiates {cpz_power / zoom_power:.0%} of zooming's power and gets "
              f"{cpz_ee / zoom_ee:.1f}x its EE"]

    cases = {(s, k): rate_expectations(ScenarioConfig(grid=PartitionGrid(3, s, 1000.0),
                                                      k_users=k, placement=UniformDisk()))
             for s in (6, 18, 36) for k in (3, 10)}
    cpz_share = {case: cpz / zoom for case, (_, zoom, cpz, _) in cases.items()}
    zoom_share = {k: cases[18, k][1] / cases[18, k][0] for k in (3, 10)}
    low, high = min(cpz_share.values()), max(cpz_share.values())
    quoted += [f"expected sum rate is {cpz_share[18, 10]:.1%} of zooming's at S = 18, K = 10",
               f"and {low * 100:.0f}-{high * 100:.0f}% over S in {{6, 18, 36}} and K in {{3, 10}}",
               f"zooming's is {zoom_share[3]:.2%} (K = 3) to {zoom_share[10]:.2%} (K = 10) "
               "of always-max's"]
    for phrase in quoted:
        assert phrase in text, phrase

    # The verdict follows the default scenario's closed forms.
    reproduced = cpz_share[18, 10] >= NEGLIGIBLE
    verdict = "does not show the paper's \"negligible impact on transmission rate\""
    assert (verdict in text) == (not reproduced)
