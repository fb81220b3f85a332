"""The CI workflow runs tier-1 on the floors that pyproject.toml declares.

Both files are read as text, with no YAML or TOML parser, so the check runs on
the oldest supported Python. The workflow itself has never been seen to run.
Record, the one module that reaches into dataclasses' internals, is also loaded
and exercised under each other CPython that pyenv has installed.
"""

import glob
import os
import re
import subprocess

import pytest

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


# Record on interpreters other than the one running the tests. _record.py imports
# only the standard library, so a bare CPython with no numpy can load it by path.
RECORD_CHECK = """
import dataclasses, importlib.util, sys
spec = importlib.util.spec_from_file_location("_record", sys.argv[1])
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)

class Point(record.Record):
    x: float
    y: float = 2.0
    tags: tuple = dataclasses.field(default_factory=tuple)

class Other(record.Record):  # Point's fields, another class
    x: float
    y: float = 2.0
    tags: tuple = dataclasses.field(default_factory=tuple)

p = Point(1.0)
assert (p.x, p.y, p.tags) == (1.0, 2.0, ()) and Point(1.0, tags=(3,)).tags == (3,)
for bad in (lambda: Point(), lambda: Point(1.0, z=0.0), lambda: Point(1.0, 2.0, (), 4)):
    try:
        bad()
    except TypeError:
        continue
    raise AssertionError("a bad argument list was accepted")
assert [f.name for f in dataclasses.fields(p)] == ["x", "y", "tags"]
q = dataclasses.replace(p, y=5.0)
assert (q.x, q.y, p.y) == (1.0, 5.0, 2.0)
assert p == Point(1.0) and hash(p) == hash(Point(1.0)) and p != q and p != Other(1.0)
for change in (lambda: setattr(p, "x", 0.0), lambda: delattr(p, "x")):
    try:
        change()
    except dataclasses.FrozenInstanceError:
        continue
    raise AssertionError("a frozen record changed")
assert (p.x, p.y) == (1.0, 2.0)
print(sys.version_info[:2])
"""


@pytest.mark.parametrize("minor", ["3.10", "3.12", "3.13"])
def test_record_works_on_other_pythons(minor):
    # Record sets the private dataclasses._FIELD that replace and fields read.
    # pyenv's interpreters stand in for the matrix entries; absent ones skip.
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    found = sorted(glob.glob(os.path.join(pyenv, "versions", f"{minor}.*", "bin", "python3")))
    if not found:
        pytest.skip(f"no pyenv Python {minor}")
    proc = subprocess.run([found[-1], "-I", "-c", RECORD_CHECK,
                           os.path.join(ROOT, "src", "cpzsim", "_record.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"({minor.replace('.', ', ')})\n"
