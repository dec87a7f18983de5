"""The CI workflow runs what the ROADMAP and the benchmark define.

``.github/workflows/tests.yml`` runs only on a push, so these checks
read it instead: the tier-1 step runs the ROADMAP's tier-1 command
verbatim, the ``mmpass validate`` and ``mmpass oracle`` self-checks
are steps of their own, and every benchmark step names a workload of
``perfbench/workloads.py`` with a seed and a run time.  The workloads
module is imported read-only, as in ``test_reference_bank.py``.
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
def runs():
    workflow = yaml.safe_load(WORKFLOW.read_text())
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


def test_tier_one_step_runs_the_roadmap_command(runs):
    found = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text())
    assert found, "ROADMAP.md names no tier-1 command"
    assert found.group(1) in runs


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
