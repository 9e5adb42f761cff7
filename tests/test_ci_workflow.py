"""The CI workflow's one perf gate: the ``hostclock-ab`` job.

The job's shell steps run here as CI runs them (``bash -e``), with a
stub ``python3`` first on ``PATH`` that logs each call, so the A/B's
order, arguments and exit status are checked without running a
benchmark.  The digest step's inline script runs under the real
interpreter, over stub records.
"""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Logs ``cwd|PYTHONPATH|argv`` per call, prints a stand-in last line
#: (or table), and exits with ``$STUB_EXIT``.
STUB = """#!/bin/sh
printf '%s|%s|%s\\n' "$PWD" "${PYTHONPATH-unset}" "$*" >> "$STUB_LOG"
echo "stub output: $*"
exit "${STUB_EXIT:-0}"
"""


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


@pytest.fixture(scope="module")
def ab_job(workflow):
    return workflow["jobs"]["hostclock-ab"]


def step(job, name):
    (found,) = [s for s in job["steps"] if s.get("name") == name]
    return found


def step_env(entry, runner_temp):
    return {
        key: str(value).replace("${{ runner.temp }}", str(runner_temp))
        for key, value in entry.get("env", {}).items()
    }


def run_step(entry, cwd, tmp, stub=True, **extra_env):
    """Run one ``run:`` step in ``cwd`` under the stub (or, with ``stub``
    false, this interpreter as ``python3``); return the completed process
    and the parsed stub calls."""
    bin_dir = tmp / "bin"
    bin_dir.mkdir(exist_ok=True)
    python3 = bin_dir / "python3"
    if stub:
        python3.write_text(STUB)
        python3.chmod(0o755)
    else:
        python3.symlink_to(sys.executable)
    log = tmp / "calls.log"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(
        PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
        PWD=str(cwd),
        STUB_LOG=str(log),
        **step_env(entry, tmp / "runner"),
        **extra_env,
    )
    script = tmp / "step.sh"
    script.write_text(entry["run"])
    proc = subprocess.run(
        ["bash", "-e", str(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    calls = []
    for line in log.read_text().splitlines() if log.exists() else ():
        where, pythonpath, args = line.split("|", 2)
        argv = args.split()
        calls.append(
            {
                "cwd": where,
                "pythonpath": pythonpath,
                "script": argv[0],
                "args": argv[1:],
                "opts": dict(zip(argv[1::2], argv[2::2])),
            }
        )
    return proc, calls


@pytest.fixture(scope="module")
def interleave(ab_job, tmp_path_factory):
    """The run step once, in a change tree with a base tree beside it."""
    tmp = tmp_path_factory.mktemp("hostclock-ab").resolve()
    base, change = tmp / "base", tmp / "change"
    base.mkdir()
    change.mkdir()
    proc, calls = run_step(
        step(ab_job, "Run base and change, interleaved"), change, tmp
    )
    assert proc.returncode == 0, proc.stderr
    return {
        "base": str(base),
        "change": str(change),
        "ab_out": tmp / "runner" / "hostclock-ab",
        "calls": calls,
    }


class TestHostclockAbJob:
    def test_runs_on_pull_requests_only(self, workflow, ab_job):
        # PyYAML reads the bare ``on:`` key as the boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers
        assert ab_job["if"] == "github.event_name == 'pull_request'"

    def test_checks_out_full_history_and_the_base_tree(self, ab_job):
        checkout = ab_job["steps"][0]
        assert checkout["uses"].startswith("actions/checkout@")
        assert checkout["with"]["fetch-depth"] == 0
        assert step(ab_job, "Check out the base tree")["run"] == (
            "git worktree add ../base "
            "${{ github.event.pull_request.base.sha }}"
        )

    def test_runs_the_benchmark_json_workloads(self, interleave):
        declared = [
            w["name"]
            for w in json.loads((ROOT / "BENCHMARK.json").read_text())[
                "workloads"
            ]
        ]
        run = [call["opts"]["--workload"] for call in interleave["calls"]]
        assert list(dict.fromkeys(run)) == declared

    def test_each_seed_runs_each_workload_once_in_each_tree(
        self, interleave
    ):
        calls = interleave["calls"]
        assert {call["script"] for call in calls} == {
            "benchmarks/hostclock/run.py"
        }
        assert {call["opts"]["--seconds"] for call in calls} == {"8"}
        runs = Counter(
            (call["cwd"], call["opts"]["--seed"], call["opts"]["--workload"])
            for call in calls
        )
        workloads = {call["opts"]["--workload"] for call in calls}
        assert {seed for _, seed, _ in runs} == {"1", "2", "3"}
        assert {cwd for cwd, _, _ in runs} == {
            interleave["base"],
            interleave["change"],
        }
        assert set(runs.values()) == {1}
        assert len(runs) == 2 * 3 * len(workloads)

    def test_each_tree_writes_its_own_records(self, interleave):
        for call in interleave["calls"]:
            side = "base" if call["cwd"] == interleave["base"] else "change"
            assert call["opts"]["--out"] == str(interleave["ab_out"] / side)

    def test_first_tree_alternates_with_seed_parity(self, interleave):
        calls = interleave["calls"]
        for first, second in zip(calls[::2], calls[1::2]):
            assert first["opts"] == {
                **second["opts"],
                "--out": first["opts"]["--out"],
            }
            odd = int(first["opts"]["--seed"]) % 2 == 1
            expected = interleave["base" if odd else "change"]
            assert first["cwd"] == expected
            assert second["cwd"] != first["cwd"]

    def test_run_py_sees_no_pythonpath(self, ab_job, interleave):
        # run.py puts its own tree's src/ first; a PYTHONPATH would make
        # both trees import the same package.
        assert {call["pythonpath"] for call in interleave["calls"]} == {
            "unset"
        }
        assert "PYTHONPATH" not in yaml.safe_dump(ab_job)

    @pytest.mark.parametrize(
        "compare_exit", [0, 1, 2], ids=["ok", "regression", "bad-input"]
    )
    def test_compare_step_exits_with_compares_status(
        self, ab_job, tmp_path, compare_exit
    ):
        ab_out = tmp_path / "runner" / "hostclock-ab"
        ab_out.mkdir(parents=True)
        proc, calls = run_step(
            step(ab_job, "Compare base against change"),
            tmp_path,
            tmp_path,
            STUB_EXIT=str(compare_exit),
        )
        assert proc.returncode == compare_exit
        (call,) = calls
        assert call["script"] == "benchmarks/hostclock/compare.py"
        assert call["args"] == [str(ab_out / "base"), str(ab_out / "change")]
        # The table is printed to the log and kept for the upload, even
        # when the step fails.
        table = (ab_out / "compare.txt").read_text()
        assert table.startswith("stub output: ")
        assert table in proc.stdout

    def test_digest_step_prints_each_pair_and_never_fails(
        self, ab_job, tmp_path
    ):
        entry = step(ab_job, "Print base and change digests")
        assert entry["if"] == "always()" and entry["continue-on-error"]
        ab_out = tmp_path / "runner" / "hostclock-ab"
        digests = {
            # (workload, seed, trace, digest_repeats): base, change
            ("floor_control", 1, 0, True): ("aa11", "aa11"),
            ("entities_farm", 2, 0, True): ("bb22", "cc33"),
            ("entities_farm", 2, 1, True): ("dd44", "dd44"),  # traced
            ("wire_farm", 1, 0, False): ("ee55", "ff66"),
        }
        for (workload, seed, trace, repeats), pair in digests.items():
            for side, digest in zip(("base", "change"), pair):
                (ab_out / side).mkdir(parents=True, exist_ok=True)
                (ab_out / side / f"{workload}-{seed}-{trace}.json").write_text(
                    json.dumps({
                        "benchmark": "hostclock", "workload": workload,
                        "seed": seed, "trace": trace, "digest": digest,
                        "digest_repeats": repeats,
                    })
                )
        proc, _ = run_step(entry, tmp_path, tmp_path, stub=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "entities_farm seed=2 base=bb22 change=cc33 differ",
            "floor_control seed=1 base=aa11 change=aa11 match",
        ]

    def test_records_and_table_are_uploaded_even_on_failure(
        self, ab_job, tmp_path
    ):
        upload = step(ab_job, "Upload A/B records and table")
        assert upload["uses"].startswith("actions/upload-artifact@")
        assert upload["if"] == "always()"
        for name in (
            "Run base and change, interleaved",
            "Compare base against change",
        ):
            ab_out = step_env(step(ab_job, name), tmp_path)["AB_OUT"]
            assert upload["with"]["path"].replace(
                "${{ runner.temp }}", str(tmp_path)
            ) == ab_out + "/"


class TestWorkflowFiles:
    def test_every_repo_file_a_step_runs_exists(self, workflow):
        pattern = re.compile(
            r"(?:benchmarks|examples|src|tests)/[\w*./-]+\.(?:py|ya?ml|json)"
        )
        named = {
            path
            for job in workflow["jobs"].values()
            for entry in job["steps"]
            for path in pattern.findall(entry.get("run", ""))
        }
        assert "benchmarks/hostclock/compare.py" in named
        missing = sorted(path for path in named if not list(ROOT.glob(path)))
        assert missing == []
