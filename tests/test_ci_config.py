"""CI pipeline configuration tests.

The workflows are plain data; these tests parse them and pin the
contracts the repo relies on: the tier-1 job runs exactly the ROADMAP.md
verify command, the bench-smoke job runs the timing gates and the
end-to-end smokes that tier-1 leaves out, and the cache-blob guard
exists in CI as well as in conftest.py.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")  # PyYAML is a CI/dev dep, not runtime

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW_PATH = ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow() -> dict:
    parsed = yaml.safe_load(WORKFLOW_PATH.read_text())
    assert isinstance(parsed, dict)
    return parsed


def job_run_lines(job: dict) -> str:
    return "\n".join(step.get("run", "") for step in job["steps"])


def test_workflow_has_all_jobs(workflow):
    assert set(workflow["jobs"]) == {"tier1", "lint", "bench-smoke"}


def test_triggers_push_and_pull_request(workflow):
    # YAML 1.1 parses the bare key `on` as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_tier1_command_matches_roadmap(workflow):
    roadmap = (ROOT / "ROADMAP.md").read_text()
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert match, "ROADMAP.md lost its Tier-1 verify command"
    tier1_command = match.group(1)
    runs = job_run_lines(workflow["jobs"]["tier1"])
    assert tier1_command in runs, (
        f"tier1 job must run the ROADMAP command verbatim: {tier1_command}"
    )


def test_tier1_python_matrix(workflow):
    matrix = workflow["jobs"]["tier1"]["strategy"]["matrix"]
    assert set(matrix["python-version"]) == {"3.10", "3.12"}


def test_tier1_guards_tracked_cache_blobs(workflow):
    runs = job_run_lines(workflow["jobs"]["tier1"])
    assert "git ls-files .bench_cache" in runs


def test_lint_job_runs_ruff_with_repo_config(workflow):
    runs = job_run_lines(workflow["jobs"]["lint"])
    assert "ruff check" in runs
    assert "ruff format --check" in runs
    config = (ROOT / "ruff.toml").read_text()
    assert re.search(r'select *= *\[', config)
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
    parsed = tomllib.loads(config)
    assert "F" in parsed["lint"]["select"]


def test_lint_format_scope_covers_grown_trees(workflow):
    """The formatter's coverage must grow with the subsystems it guards:
    serving, the feedback tree and every script, the model layer behind
    the serving fast path, the fault registry, the resilience layer and
    its chaos scenarios, the execution backends and their test suites,
    the observability layer and its suites, the distributed runner and
    its suites, and the HTTP contract suite."""
    runs = job_run_lines(workflow["jobs"]["lint"])
    format_step = next(
        (
            step.get("run", "")
            for step in workflow["jobs"]["lint"]["steps"]
            if "ruff format --check" in str(step.get("run", ""))
        ),
        "",
    )
    assert format_step, "lint job lost its ruff format step"
    assert "ruff format --check" in runs
    scope = " ".join(format_step.split())
    for target in (
        "src/repro/serve",
        "src/repro/model",
        "src/repro/feedback",
        "src/repro/exec",
        "scripts",
        "tests/test_resilience.py",
        "tests/test_exec_backend.py",
        "tests/test_sql_render.py",
        "tests/test_obs.py",
        "src/repro/obs",
        "src/repro/faults.py",
        "tests/test_load.py",
        "src/repro/eval/runner.py",
        "src/repro/eval/parallel.py",
        "tests/test_runner.py",
        "benchmarks/test_perf_runner.py",
        "tests/test_http_contract.py",
    ):
        assert target in scope, f"ruff format scope lost {target}"
        assert (ROOT / target).exists()


def test_bench_smoke_records_perf_artifacts(workflow):
    """Tier-1 leaves the perf-marked timing gates out; bench-smoke runs
    them as a plain step (its exit status fails the job), and runs
    realbench, whose exit status is the DuckDB grounding verdict."""
    ini = (ROOT / "pytest.ini").read_text()
    assert 'addopts = -m "not perf"' in ini
    steps = [
        " ".join(step.get("run", "").split())
        for step in workflow["jobs"]["bench-smoke"]["steps"]
    ]
    assert "PYTHONPATH=src python -m pytest -m perf -q" in steps
    realbench = [step for step in steps if "scripts/realbench.py" in step]
    assert realbench, "bench-smoke must run scripts/realbench.py"
    for option in (
        "--queries 200",
        "--fact-rows 4000",
        "--epochs 4",
        "--hidden-dim 16",
        "--max-feedback-queries 40",
    ):
        assert option in realbench[0], option


def test_bench_smoke_installs_duckdb_extra(workflow):
    """The realbench step needs the real engine: bench-smoke must
    install the [duckdb] extra (tier-1 deliberately does not, so the
    importorskip/BackendUnavailable degradation path stays exercised),
    and setup.py must keep declaring it."""
    runs = job_run_lines(workflow["jobs"]["bench-smoke"])
    assert '[duckdb]' in runs
    tier1_runs = job_run_lines(workflow["jobs"]["tier1"])
    assert "[duckdb]" not in tier1_runs
    setup = (ROOT / "setup.py").read_text()
    assert "extras_require" in setup and '"duckdb"' in setup


def test_bench_smoke_runs_benchmark_harness_smoke(workflow):
    """The benchmark harness smoke must run in CI: it is the only step
    that notices a src/ change breaking a name or /stats key the
    BENCHMARK.json workloads read, and it must run the script as a
    plain step (its exit status fails the job)."""
    job = workflow["jobs"]["bench-smoke"]
    steps = [
        step
        for step in job["steps"]
        if "perfbench/check_smoke.py" in str(step.get("run", ""))
    ]
    assert steps, "bench-smoke must run perfbench/check_smoke.py"
    assert steps[0]["run"].strip() == "python3 perfbench/check_smoke.py"
    assert (ROOT / "perfbench" / "check_smoke.py").exists()


def test_bench_smoke_runs_runner_smoke(workflow):
    """The runner-smoke step must drive the distributed experiment
    runner under the `quick` chaos scenario — sweep.py exits non-zero
    on lost tasks, missing lease reclaims, or chaos/serial result
    divergence — and its BENCH row must stay a per-machine liveness
    signal (gitignored)."""
    runs = job_run_lines(workflow["jobs"]["bench-smoke"])
    scope = " ".join(runs.split())
    assert "scripts/sweep.py start" in scope
    assert "--runners 2 --chaos quick" in scope
    assert "BENCH_runner_smoke.json" in scope
    assert "BENCH_runner_smoke.json" in (ROOT / ".gitignore").read_text()
    # the chaos scenario book must keep the CI scenario it runs
    sweep_script = (ROOT / "scripts" / "sweep.py").read_text()
    assert '"quick"' in sweep_script and "CHAOS_SCENARIOS" in sweep_script


def test_ci_cancels_superseded_runs_and_bounds_jobs(workflow):
    """Every push to a ref supersedes its running pipeline, and no job
    may hang a runner indefinitely."""
    group = workflow["concurrency"]
    assert group["cancel-in-progress"] is True
    assert "github.ref" in group["group"]
    for name, job in workflow["jobs"].items():
        assert isinstance(job.get("timeout-minutes"), int), (
            f"job {name} must set timeout-minutes"
        )


def test_every_setup_python_step_caches_pip(workflow):
    for name, job in workflow["jobs"].items():
        for step in job["steps"]:
            if "setup-python" not in str(step.get("uses", "")):
                continue
            with_block = step.get("with", {})
            assert with_block.get("cache") == "pip", (
                f"job {name}: setup-python must enable pip caching"
            )
