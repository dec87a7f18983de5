"""The CI workflow runs what the ROADMAP and the benchmark define.

``.github/workflows/tests.yml`` runs only on a push, so these checks
read it instead: the tier-1 job runs on the ``requires-python`` floor
of ``pyproject.toml``, a second tier-1 job runs that floor with numpy
at its declared floor, each tier-1 step runs the ROADMAP's tier-1
command verbatim, the ``mmpass validate`` and ``mmpass oracle``
self-checks are steps of their own, and every benchmark step names a
workload of ``perfbench/workloads.py`` with a seed and a run time.
The workloads module is imported read-only, as in
``test_reference_bank.py``.
"""

import importlib.util
import re
import shlex
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


@pytest.fixture(scope="module")
def runs(workflow):
    return [step["run"].strip() for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _floor(pattern):
    """The version floor of ``pyproject.toml`` that ``pattern`` reads:
    by a pattern, as tomllib is 3.11+ and the floor job runs this."""
    floor = re.search(pattern, (ROOT / "pyproject.toml").read_text(),
                      re.MULTILINE)
    assert floor, f"pyproject.toml declares no floor for {pattern}"
    return floor.group(1)


def _python_floor():
    return _floor(r'^requires-python\s*=\s*">=\s*([0-9.]+)"')


def test_tier_one_job_runs_the_python_floor(workflow):
    job = workflow["jobs"]["tier-1"]
    versions = job["strategy"]["matrix"]["python-version"]
    # an unquoted 3.10 would load as the float 3.1
    assert all(isinstance(v, str) for v in versions), versions
    assert _python_floor() in versions, versions
    setup = [step for step in job["steps"]
             if step.get("uses", "").startswith("actions/setup-python")]
    assert [step["with"]["python-version"] for step in setup] == [
        "${{ matrix.python-version }}"]


def _tier_one_command():
    found = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text())
    assert found, "ROADMAP.md names no tier-1 command"
    return found.group(1)


def test_tier_one_step_runs_the_roadmap_command(runs):
    assert _tier_one_command() in runs


def test_numpy_floor_job_pins_the_declared_floor(workflow):
    # the tier-1 tests on the oldest Python with the oldest numpy that
    # pyproject.toml accepts, so a call newer than the floor fails there
    numpy_floor = _floor(r'^\s*"numpy>=([0-9.]+)"')
    job = workflow["jobs"]["tier-1-numpy-floor"]
    setup = [step for step in job["steps"]
             if step.get("uses", "").startswith("actions/setup-python")]
    assert [step["with"]["python-version"] for step in setup] == [
        _python_floor()]
    job_runs = [step["run"].strip() for step in job["steps"]
                if "run" in step]
    installs = [shlex.split(run) for run in job_runs
                if run.startswith("pip install")]
    assert len(installs) == 1 and f"numpy=={numpy_floor}" in installs[0], \
        installs
    assert _tier_one_command() in job_runs


@pytest.mark.parametrize("command", ["mmpass validate", "mmpass oracle"])
def test_self_check_steps_exist(runs, command):
    assert command in runs


def test_benchmark_steps_name_a_workload_seed_and_run_time(runs, workloads):
    commands = [shlex.split(part) for run in runs for part in run.split("|")
                if "perfbench/run.py" in part]
    assert commands, "no step runs perfbench/run.py"
    for argv in commands:
        assert argv[:2] == ["python3", "perfbench/run.py"], argv
        options = dict(zip(argv[2::2], argv[3::2]))
        assert {"--workload", "--seed", "--seconds"} <= options.keys(), argv
        assert options["--workload"] in workloads.WORKLOADS, argv
        assert int(options["--seed"]) >= 0, argv
        assert float(options["--seconds"]) > 0, argv
