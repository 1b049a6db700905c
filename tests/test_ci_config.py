"""CI pipeline configuration tests.

The workflows are plain data; these tests parse them and pin the
contracts the repo relies on: the tier-1 job runs exactly the ROADMAP.md
verify command, the bench-smoke job records the perf trajectory as an
artifact, and the cache-blob guard exists in CI as well as in
conftest.py.
"""

from __future__ import annotations

import importlib.util
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
    the serving fast path, the resilience layer and its chaos suite, the
    execution backends and their test suites, the loadtest perf suite,
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
        "benchmarks/test_perf_chaos.py",
        "benchmarks/test_perf_loadtest.py",
        "benchmarks/test_perf_obs.py",
        "benchmarks/test_perf_realbench.py",
        "src/repro/eval/runner.py",
        "src/repro/eval/parallel.py",
        "tests/test_runner.py",
        "benchmarks/test_perf_runner.py",
        "tests/test_http_contract.py",
    ):
        assert target in scope, f"ruff format scope lost {target}"
        assert (ROOT / target).exists()


def test_bench_smoke_records_perf_artifacts(workflow):
    job = workflow["jobs"]["bench-smoke"]
    runs = job_run_lines(job)
    assert "REPRO_JOBS=2" in runs
    assert "scripts/bench.sh" in runs
    uploads = [
        step
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    ]
    assert uploads, "bench-smoke must upload the BENCH_*.json artifacts"
    assert "BENCH_*.json" in uploads[0]["with"]["path"]
    assert "bench_history.jsonl" in uploads[0]["with"]["path"], (
        "bench-smoke must upload the perf-trajectory history artifact"
    )


def test_bench_smoke_installs_duckdb_extra(workflow):
    """The realbench suite needs the real engine: bench-smoke must
    install the [duckdb] extra (tier-1 deliberately does not, so the
    importorskip/BackendUnavailable degradation path stays exercised),
    and setup.py must keep declaring it."""
    runs = job_run_lines(workflow["jobs"]["bench-smoke"])
    assert '[duckdb]' in runs
    tier1_runs = job_run_lines(workflow["jobs"]["tier1"])
    assert "[duckdb]" not in tier1_runs
    setup = (ROOT / "setup.py").read_text()
    assert "extras_require" in setup and '"duckdb"' in setup


def test_bench_compare_appends_perf_history():
    """Every compare run must append to bench_history.jsonl so the perf
    trajectory accumulates instead of living only in the last snapshot."""
    script = (ROOT / "scripts" / "bench_compare.py").read_text()
    assert "bench_history.jsonl" in script
    assert "append_history" in script
    # the history file is a CI artifact, never repo content
    assert "bench_history.jsonl" in (ROOT / ".gitignore").read_text()


def test_bench_smoke_compares_against_baselines(workflow):
    """The smoke job must diff fresh numbers against the recorded
    baselines — small deltas warn (noisy runners), past-gate collapses
    of directional metrics fail the job, and the pipe through ``tee``
    must not swallow the gate's exit code."""
    job = workflow["jobs"]["bench-smoke"]
    runs = job_run_lines(job)
    assert "scripts/bench_compare.py" in runs
    compare_steps = [
        step
        for step in job["steps"]
        if "bench_compare" in str(step.get("run", ""))
    ]
    assert compare_steps
    assert "pipefail" in str(compare_steps[0].get("run", ""))
    script = (ROOT / "scripts" / "bench_compare.py").read_text()
    assert "::warning" in script  # small regressions annotate...
    assert "::error" in script  # ...past-gate regressions fail
    assert "--no-gate" in script  # with a documented escape hatch
    assert "1 if failures else 0" in script


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
    signal (gitignored, never perf-gated)."""
    runs = job_run_lines(workflow["jobs"]["bench-smoke"])
    scope = " ".join(runs.split())
    assert "scripts/sweep.py start" in scope
    assert "--runners 2 --chaos quick" in scope
    assert "BENCH_runner_smoke.json" in scope
    assert "BENCH_runner_smoke.json" in (ROOT / ".gitignore").read_text()
    script = (ROOT / "scripts" / "bench_compare.py").read_text()
    assert "runner_smoke" in script
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


def test_bench_compare_judges_negative_baselines_by_absolute_delta():
    """A relative delta against a negative baseline flips sign:
    overhead_fraction can legitimately sit below zero (noise floor), and
    a real regression to +10% must still be flagged."""
    path = ROOT / "scripts" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # lower-is-better metric, negative baseline: +0.12 absolute is a
    # regression, staying at the noise floor is not
    _, regressed = module.judge(-0.02, 0.10, sign=-1, threshold=0.05)
    assert regressed
    _, regressed = module.judge(-0.02, -0.03, sign=-1, threshold=0.05)
    assert not regressed
    # positive baselines keep the relative semantics, both directions
    _, regressed = module.judge(10.0, 6.0, sign=1, threshold=0.25)
    assert regressed  # speedup lost 40%
    _, regressed = module.judge(0.040, 0.055, sign=-1, threshold=0.25)
    assert regressed  # seconds grew 37%
    _, regressed = module.judge(10.0, 9.0, sign=1, threshold=0.25)
    assert not regressed
    assert module.direction("x.speedup") == 1
    assert module.direction("x.overhead_fraction") == -1
    assert module.direction("x.batch_size") == 0
    # BENCH_obs: the overhead ratio is the gated metric; the raw rps
    # figures are host-absolute and the trace table is per-request
    # attribution from a handful of samples — neither is a trajectory
    assert module.direction("overhead.overhead_fraction") == -1
    assert module.direction("overhead.rps_enabled") == 0
    assert module.direction("overhead.rps_disabled") == 0
    assert module.direction("trace.e2e_ms") == 0
    assert module.direction("trace.stages.model.forward.ms") == 0
    # the loadtest's headline metrics must be tracked...
    assert module.direction("scenarios.repeat50.achieved_qps") == 1
    assert module.direction("scenarios.repeat50.p99_ms") == -1
    assert module.direction("scenarios.open_loop.stats_poll.p95_ms") == -1
    # ...while its config knobs and run-shape values must not be
    assert module.direction("scenarios.repeat50.config.max_wait_us") == 0
    assert module.direction("scenarios.repeat50.config.duration_s") == 0
    assert module.direction("scenarios.repeat50.seconds") == 0
    assert module.direction("scenarios.repeat50.stats_poll.samples") == 0


def test_bench_compare_gate_noise_floor_and_exemptions():
    """The gate must not fire where the measurement can't support it:
    sub-millisecond timings (scheduler jitter), microsecond knobs under
    1ms, sub-millisecond elapsed times — and never on the per-machine
    runner smoke row."""
    path = ROOT / "scripts" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.noise_floor("scenarios.open_loop.p50_ms", 0.4)
    assert not module.noise_floor("scenarios.repetitive.p99_ms", 3.0)
    assert module.noise_floor("x.startup_us", 200.0)
    assert not module.noise_floor("x.startup_us", 5000.0)
    assert module.noise_floor("x.seconds", 5e-4)
    assert not module.noise_floor("x.seconds", 0.5)
    assert "runner_smoke" in module.NEVER_GATE_BENCHES
    # gate failures surface as ::error and a non-zero exit; --no-gate
    # and small deltas stay on the warning tier
    script = path.read_text()
    assert script.index("::warning") and script.index("::error")


def test_bench_script_is_ci_safe():
    script = (ROOT / "scripts" / "bench.sh").read_text()
    assert "set -euo pipefail" in script
    assert "BENCH_SUMMARY" in script  # one-line JSON summary contract
    assert "REPRO_SCALE" in script and "REPRO_JOBS" in script
    assert re.search(r'exit "\$status"', script), (
        "bench.sh must propagate pytest's exit status"
    )


def test_chaos_marker_is_wired_like_perf():
    """The chaos suite must stay out of the tier-1 run (its fault storms
    take seconds and are load-sensitive) but *in* the bench-smoke job:
    dual perf+chaos marks mean bench.sh's ``-m perf`` selection picks it
    up, and the every-perf-suite test below pins its bench.sh entry."""
    ini = (ROOT / "pytest.ini").read_text()
    assert "chaos:" in ini, "pytest.ini lost the chaos marker declaration"
    assert '-m "not perf and not chaos"' in ini, (
        "tier-1 addopts must exclude chaos scenarios"
    )
    suite = (ROOT / "benchmarks" / "test_perf_chaos.py").read_text()
    assert "pytest.mark.perf" in suite and "pytest.mark.chaos" in suite


def test_bench_script_runs_every_perf_suite():
    """Every benchmarks/test_perf_*.py must be in bench.sh's default
    selection, or its BENCH artifact silently stops being produced."""
    script = (ROOT / "scripts" / "bench.sh").read_text()
    for path in sorted((ROOT / "benchmarks").glob("test_perf_*.py")):
        assert f"benchmarks/{path.name}" in script, (
            f"bench.sh default selection lost {path.name}"
        )
