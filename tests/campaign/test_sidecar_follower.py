"""Incremental record following: offsets, torn lines, truncation."""

import json

from repro.campaign.store import JobStore, SidecarFollower


def make_store(tmp_path) -> JobStore:
    store = JobStore(tmp_path / "out")
    store.telemetry_dir.mkdir(parents=True, exist_ok=True)
    return store


def append(store, name: str, payload: bytes) -> None:
    with (store.telemetry_dir / name).open("ab") as record:
        record.write(payload)


def line(job_id: str, iteration: int) -> bytes:
    return (
        json.dumps(
            {"job_id": job_id, "iteration": iteration, "telemetry": {}}
        ).encode()
        + b"\n"
    )


class TestFollower:
    def test_each_poll_returns_only_new_lines(self, tmp_path):
        store = make_store(tmp_path)
        follower = SidecarFollower(store)
        append(store, "job-a.jsonl", line("job-a", 0))
        first = follower.poll()
        assert [entry["iteration"] for entry in first] == [0]
        assert follower.poll() == []
        append(store, "job-a.jsonl", line("job-a", 1) + line("job-a", 2))
        assert [entry["iteration"] for entry in follower.poll()] == [1, 2]
        assert follower.latest["job-a"]["iteration"] == 2

    def test_torn_line_buffers_until_completed(self, tmp_path):
        store = make_store(tmp_path)
        follower = SidecarFollower(store)
        whole = line("job-a", 0)
        append(store, "job-a.jsonl", whole[:10])
        assert follower.poll() == []
        append(store, "job-a.jsonl", whole[10:])
        assert [entry["iteration"] for entry in follower.poll()] == [0]

    def test_truncated_file_replays_from_start(self, tmp_path):
        store = make_store(tmp_path)
        follower = SidecarFollower(store)
        append(store, "job-a.jsonl", line("job-a", 0) + line("job-a", 1))
        assert len(follower.poll()) == 2
        # A re-running job truncates its own record and starts over.
        (store.telemetry_dir / "job-a.jsonl").write_bytes(line("job-a", 0))
        assert [entry["iteration"] for entry in follower.poll()] == [0]

    def test_corrupt_lines_skipped(self, tmp_path):
        store = make_store(tmp_path)
        follower = SidecarFollower(store)
        append(store, "job-a.jsonl", b"{not json\n" + line("job-a", 3))
        assert [entry["iteration"] for entry in follower.poll()] == [3]

    def test_commit_lines_and_clientspan_streams_ignored(self, tmp_path):
        store = make_store(tmp_path)
        follower = SidecarFollower(store)
        append(
            store,
            "job-a.jsonl",
            line("job-a", 0)
            + b'{"committed_iterations": 1, "job_id": "job-a"}\n',
        )
        append(store, "fleet.clientspans.jsonl", line("fleet", 0))
        assert [entry["job_id"] for entry in follower.poll()] == ["job-a"]
        assert follower.poll() == []

    def test_streams_interleave_in_sorted_order(self, tmp_path):
        store = make_store(tmp_path)
        follower = SidecarFollower(store)
        append(store, "job-b.jsonl", line("job-b", 0))
        append(store, "job-a.jsonl", line("job-a", 0))
        assert [entry["job_id"] for entry in follower.poll()] == [
            "job-a",
            "job-b",
        ]
