"""The CI workflow parses and names only paths that exist.

A workflow that is not valid YAML runs no job at all, and a step that
names a moved or deleted test file fails only once CI runs it; both
are caught here, in the tier-1 suite."""

from __future__ import annotations

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Repository paths a step can name.
_PATH = re.compile(
    r"(?<![\w./$-])(?:tests|benchmarks|examples|perfbench)/[\w./-]*")


def _jobs() -> dict:
    return yaml.safe_load(WORKFLOW.read_text())["jobs"]


def test_every_job_has_steps():
    jobs = _jobs()
    assert jobs
    for name, job in jobs.items():
        assert job.get("steps"), f"job {name!r} has no steps"


def test_every_named_path_exists():
    named = set()
    for job in _jobs().values():
        for step in job["steps"]:
            named.update(_PATH.findall(step.get("run", "")))
    assert named, "no repository path found in any step"
    missing = sorted(p for p in named if not (ROOT / p).exists())
    assert not missing, f"ci.yml names missing paths: {missing}"
