"""Checks on the hostclock benchmark itself.

Not collected by tier-1 (``testpaths = ["tests"]``); run it explicitly:

    python -m pytest benchmarks/hostclock/test_hostclock.py -q

It takes about a minute: two short real runs of ``run.py`` are part of it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

wl, _ = run.import_system()
import hostspeed  # noqa: E402
import layers  # noqa: E402

BENCHMARK = run.load_benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_MISSING = object()
#: One simulated second of the cheapest world: enough to tick, quick to run.
FLOOD = (("flood", wl.ENVIRONMENT, 1.0),)


def _own_attributes() -> dict:
    return {
        (owner, attr): vars(owner).get(attr, _MISSING)
        for owner, attr in layers.patch_points()
    }


def _rep(digest: str, attempted: int = 3, failed: int = 0):
    return wl.Rep(
        setup=[(0.0, 0.1)], measured=[(0.0, 1.1)], ticks=100, sim_s=5.0,
        attempted=attempted, failed=failed, digest=digest,
    )


# -- BENCHMARK.json and run.py name the same things ----------------------------


def test_declared_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert BENCHMARK["paths"] == ["benchmarks/hostclock"]
    assert "setup_s" in [m["name"] for m in BENCHMARK["end_to_end"]]


def test_workloads_match_the_declaration():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_exactly_the_declared_metrics(trace, tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "floor_control",
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        # every metric is printed by name with its unit for a human, too
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
            done.stdout, re.MULTILINE,
        ), metric["name"]
    (record_path,) = tmp_path.glob("floor_control-3-*.json")
    record = json.loads(record_path.read_text())
    assert record["host"]["nproc"] >= 1 and "hygiene" in record["host"]
    assert record["summary"]["ticks_per_s"]["n"] == len(
        record["summary"]["ticks_per_s"]["samples"]
    )
    if trace:
        metrics = result["metrics"]
        phases = sum(
            metrics[f"{layer}.us_per_tick"]["value"]
            for layer, _, _ in layers.TICK_PHASES
            if layer not in (layers.TICK, "emulation.swarm.step",
                             "core.collectors.maybe_sample")
        ) + metrics["mlg.gameloop.self.us_per_tick"]["value"]
        assert phases == pytest.approx(
            metrics["mlg.server.tick.us_per_tick"]["value"], rel=0.02
        )
        assert metrics["mlg.server.tick.samples"]["value"] == metrics["ticks"]["value"]


# -- wrappers come and go cleanly ----------------------------------------------


def test_traced_rep_restores_every_wrapped_attribute():
    before = _own_attributes()
    trace = layers.LayerTrace()
    rep = wl.inproc_rep(FLOOD, 5, None, trace)
    assert len(trace.tick_ns) == rep.ticks > 0
    assert rep.facts["world_hashes"]
    assert _own_attributes() == before
    assert not trace._patched


def test_wrappers_are_restored_when_the_measured_call_raises():
    before = _own_attributes()
    with pytest.raises(ZeroDivisionError):
        with layers.LayerTrace().installed():
            assert _own_attributes() != before
            1 / 0
    assert _own_attributes() == before


def test_end_to_end_rep_installs_no_wrapper():
    before = _own_attributes()
    rep = wl.inproc_rep(FLOOD, 5, None, None)
    assert rep.ticks > 0 and rep.failed == 0
    assert _own_attributes() == before
    for owner, attr in layers.patch_points():
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)


def test_same_seed_same_digest_traced_or_not():
    plain = wl.inproc_rep(FLOOD, 5, None, None)
    traced = wl.inproc_rep(FLOOD, 5, None, layers.LayerTrace())
    assert plain.digest == traced.digest
    assert plain.digest != wl.inproc_rep(FLOOD, 6, None, None).digest


# -- failures are counted --------------------------------------------------------


def test_digest_mismatch_fails_the_whole_rep():
    workload = wl.WORKLOADS["floor_control"]
    assert run.count_operations(workload, [_rep("a"), _rep("a")]) == (6, 0)
    assert run.count_operations(workload, [_rep("a"), _rep("b"), _rep("a")]) == (9, 3)
    # wire_farm's reps are not expected to repeat, so theirs are not compared
    assert run.count_operations(
        wl.WORKLOADS["wire_farm"], [_rep("a"), _rep("b")]
    ) == (6, 0)


def test_rep_that_raises_fails_all_its_operations():
    workload = wl.WORKLOADS["campaign_matrix"]
    attempted, failed = run.count_operations(workload, [_rep("a", 17), None])
    assert (attempted, failed) == (17 + workload.ops, workload.ops)


def test_unconnected_client_is_a_failed_operation():
    iteration = SimpleNamespace(crashed=False)
    ok = {"clients": 2, "connected": 2}
    assert wl.wire_failures(ok, [iteration], [{}]) == (5, 0)
    assert wl.wire_failures({"clients": 2, "connected": 1}, [iteration], [{}]) == (5, 1)
    assert wl.wire_failures(ok, [SimpleNamespace(crashed=True)], [{}]) == (5, 1)
    assert wl.wire_failures(ok, [], []) == (5, 3)


def test_campaign_counts_missing_shards_sidecars_and_report():
    jobs = [SimpleNamespace(job_id="a"), SimpleNamespace(job_id="b")]
    good = [SimpleNamespace(crashed=False)] * 2
    shards = {"a": good, "b": good}
    sidecars = {"a": [{}, {}], "b": [{}, {}]}
    assert wl.campaign_failures(jobs, shards, sidecars, 2, True) == (9, 0)
    lost_shard = {"a": good, "b": None}
    assert wl.campaign_failures(jobs, lost_shard, sidecars, 2, True)[1] == 3
    short_sidecar = {"a": [{}], "b": [{}, {}]}
    assert wl.campaign_failures(jobs, shards, short_sidecar, 2, False)[1] == 2


# -- the compensated clock ---------------------------------------------------------


def test_compensated_seconds_discount_the_slow_stretches():
    clock = hostspeed.HostSpeed()
    assert clock.seconds(1.0, 3.5) == 2.5  # no sample yet: plain wall
    nominal = hostspeed.NOMINAL_PROBE_S
    clock.at = [1.0, 2.0, 3.0]
    clock.probe_s = [nominal, 2 * nominal, nominal]
    # (0.5, 1] at full speed, (1, 2] while the probe took twice as long,
    # (2, 2.5] at full speed again
    slow = 0.5 ** hostspeed.SENSITIVITY
    assert clock.seconds(0.5, 2.5) == pytest.approx(0.5 + slow + 0.5)
    assert clock.seconds(1.2, 1.6) == pytest.approx(0.4 * slow)
    assert clock.seconds(3.0, 5.0) == pytest.approx(2.0)  # after the last sample
    rep = _rep("a")
    assert rep.times(run.wall_seconds) == pytest.approx((0.1, 1.0))


# -- compare.py's verdicts -------------------------------------------------------


def test_compare_verdicts_follow_the_guide():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 100.3, 99.9]
    judge = compare.verdict
    assert judge(steady, steady, "higher", 0.1)["verdict"] == "no change"
    assert judge(steady, [v * 1.05 for v in steady], "higher", 0.1)["verdict"] == "gain"
    slower = [v * 0.8 for v in steady]
    assert judge(steady, slower, "higher", 0.1)["verdict"] == "regression"
    assert judge(steady, slower, "lower", 0.1)["verdict"] == "gain"
    noisy = [100.0, 130.0, 80.0, 120.0, 70.0, 110.0, 90.0, 140.0, 60.0, 100.0]
    assert judge(noisy, noisy[::-1], "higher", 0.1)["verdict"] == "unresolved"
    assert judge(noisy, [v + 200 for v in noisy], "higher", 0.1)["verdict"] == "gain"
