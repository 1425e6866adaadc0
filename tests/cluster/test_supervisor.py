"""Worker lifecycle: spawn, announce, health, journal layout, stop."""

import signal
import subprocess
import sys
import types

import pytest

from repro.cluster import supervisor as supervisor_module
from repro.cluster.supervisor import (
    _ANNOUNCE_RE,
    ClusterSupervisor,
    shard_journal_dir,
)


class TestAnnounceParsing:
    @pytest.mark.fast
    def test_matches_the_server_banner(self):
        match = _ANNOUNCE_RE.search(
            "repro-service listening on 127.0.0.1:8931\n"
        )
        assert match is not None
        assert match.group("host") == "127.0.0.1"
        assert match.group("port") == "8931"

    @pytest.mark.fast
    def test_shard_journal_dir_layout(self, tmp_path):
        assert shard_journal_dir(tmp_path, 3) == tmp_path / "shard-3"

    @pytest.mark.fast
    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            ClusterSupervisor(shards=0)

    @pytest.mark.fast
    def test_worker_command_carries_no_tuning_flag(self, tmp_path,
                                                   monkeypatch):
        commands = []
        monkeypatch.setattr(supervisor_module, "subprocess",
                            types.SimpleNamespace(
                                Popen=lambda command, **_: commands.append(
                                    command),
                                PIPE=subprocess.PIPE,
                                TimeoutExpired=subprocess.TimeoutExpired))
        ClusterSupervisor(shards=1, journal_dir=tmp_path)._spawn(0)
        assert commands == [[
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--journal-dir", str(tmp_path / "shard-0"),
        ]]


class TestLifecycle:
    def test_start_health_stop_exits_zero(self, tmp_path):
        supervisor = ClusterSupervisor(shards=2, journal_dir=tmp_path)
        supervisor.start()
        try:
            addresses = supervisor.addresses()
            assert len(addresses) == 2
            assert all(port > 0 for _, port in addresses)
            # Ephemeral ports must be distinct workers.
            assert len({port for _, port in addresses}) == 2
            supervisor.health_check()
            assert supervisor.dead_shards() == []
            # Eager journal layout: every shard dir exists even before
            # any session is created (records the true cluster size).
            for shard in range(2):
                assert (tmp_path / f"shard-{shard}").is_dir()
        finally:
            codes = supervisor.stop()
        # SIGTERM is the graceful path: drained and exited 0.
        assert codes == [0, 0]

    def test_dead_shards_detects_a_killed_worker(self, tmp_path):
        supervisor = ClusterSupervisor(shards=2, journal_dir=tmp_path)
        supervisor.start()
        try:
            supervisor.workers[1].process.send_signal(signal.SIGKILL)
            supervisor.workers[1].process.wait(timeout=10)
            assert supervisor.dead_shards() == [1]
        finally:
            supervisor.stop()

    def test_stop_is_idempotent_for_already_dead_workers(self, tmp_path):
        supervisor = ClusterSupervisor(shards=1, journal_dir=tmp_path)
        supervisor.start()
        first = supervisor.stop()
        assert first == [0]
        assert supervisor.stop() == [0]
