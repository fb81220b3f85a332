"""The CI workflow runs tier-1 on the floors that pyproject.toml declares.

Both files are read as text, with no YAML or TOML parser, so the check runs on
the oldest supported Python. The workflow itself has never been seen to run.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


PROJECT = read("pyproject.toml")
WORKFLOW = read(".github", "workflows", "tier1.yml")


def test_workflow_matrix_pins_the_declared_floors():
    # requires-python = ">=3.10" and "numpy>=1.24" give one matrix entry with
    # python: "3.10" and numpy: "numpy==1.24.*".
    python_floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', PROJECT, re.M).group(1)
    numpy_floor = re.search(r'"numpy>=(\d+\.\d+)"', PROJECT).group(1)
    entry = re.search(rf'^\s+- python: "{re.escape(python_floor)}"\n\s+numpy: "([^"]*)"$',
                      WORKFLOW, re.M)
    assert entry, f"no matrix entry for Python {python_floor}"
    assert entry.group(1) == f"numpy=={numpy_floor}.*"


def test_workflow_installs_the_test_extras():
    extras = re.search(r"^test = \[(.*)\]$", PROJECT, re.M).group(1)
    packages = re.findall(r'"([A-Za-z0-9_.-]+?)\s*(?:[<>=!~][^"]*)?"', extras)
    installed = re.search(r"^\s+run: python -m pip install (.*)$", WORKFLOW, re.M).group(1).split()
    assert packages == ["pytest", "hypothesis"]
    assert set(packages) <= set(installed)


def test_tier1_job_has_a_timeout():
    # A job with no timeout-minutes runs for GitHub's default of six hours if a test hangs.
    job = re.search(r"^  tier1:\n((?:    .*\n|\n)*)", WORKFLOW, re.M).group(1)
    minutes = re.search(r"^    timeout-minutes: (\d+)$", job, re.M)
    assert minutes, "the tier1 job sets no timeout-minutes"
    assert 0 < int(minutes.group(1)) <= 60


def test_workflow_token_can_only_read_the_repository():
    # Least privilege: checkout needs contents: read, and nothing writes. A
    # job-level permissions block would override the workflow's.
    block = re.search(r"^permissions:\n((?:  .*\n)*)", WORKFLOW, re.M)
    assert block, "the workflow sets no top-level permissions"
    assert block.group(1) == "  contents: read\n"
    assert WORKFLOW.count("permissions:") == 1


# numpy 2.x functions that numpy 1.24, the declared floor, lacks. np.astype is
# one; the method ndarray.astype, which every numpy has, is not matched.
NUMPY_2_ONLY = {
    "vecdot", "matvec", "vecmat", "unstack", "cumulative_sum", "cumulative_prod", "astype",
    "concat", "permute_dims", "matrix_transpose", "isdtype", "bitwise_count", "trapezoid",
    "pow", "acos", "asin", "atan", "atan2", "acosh", "asinh", "atanh", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "matrix_norm", "vector_norm", "svdvals",
}
NUMPY_NAME = re.compile(r"\b(?:np|numpy)\.(?:linalg\.)?(\w+)")


def test_package_uses_no_numpy_name_newer_than_the_floor():
    # Stands in for the numpy 1.24 matrix entry, which has never been seen to run.
    assert NUMPY_NAME.findall("np.vecdot(a, b) + a.astype(int) + numpy.linalg.svdvals(a)") == [
        "vecdot", "svdvals"]
    package = os.path.join(ROOT, "src", "cpzsim")
    used = {(name, attr) for name in sorted(os.listdir(package)) if name.endswith(".py")
            for attr in NUMPY_NAME.findall(read("src", "cpzsim", name)) if attr in NUMPY_2_ONLY}
    assert used == set()
