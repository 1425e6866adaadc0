"""Tests for the replay journal: format, fault tolerance, determinism."""

import json
import re
from pathlib import Path

import pytest

from repro.contracts import ContractViolation, check_replay_sessions
from repro.instrument import workmeter
from repro.service import session as session_module
from repro.service.journal import (
    JOURNAL_FORMAT,
    JournalError,
    ReplayJournal,
    read_journal,
    replay_journal,
)
from repro.service.session import RETIRED_BACKENDS, Session

pytestmark = pytest.mark.fast

UPDATES = [("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 3),
           ("delete", 1, 2), ("insert", 4, 5), ("insert", 5, 6),
           ("delete", 0, 1), ("insert", 0, 7)]


#: Journals written by version 1.8.0 in the retired
#: ``repro-service-journal-v1`` format.  The v2 neighbour sampler serves
#: different matchings from the same header and updates, so these must
#: be refused, with the release that still replays them named.
FIXTURES = Path(__file__).parent / "fixtures" / "journals"
JOURNALS_1_8_0 = ["v1.8.0-baseline.jsonl", "v1.8.0-lazy-rebuild.jsonl",
                  "v1.8.0-oblivious.jsonl"]


def record_session(path, seed=3, updates=UPDATES):
    session = Session(
        "journal-test", num_vertices=8, beta=1, epsilon=0.4,
        seed=seed, journal=ReplayJournal(path),
    )
    for op, u, v in updates:
        session.apply(op, u, v)
    session.flush_journal()
    return session


class TestFormat:
    def test_header_fields(self, tmp_path):
        path = tmp_path / "s.jsonl"
        session = record_session(path)
        header, updates = read_journal(path)
        assert header["format"] == JOURNAL_FORMAT
        assert header["session"] == "journal-test"
        assert header["num_vertices"] == 8
        assert header["backend"] == "lazy_rebuild"
        assert header["rng"]["entropy"] == 3
        assert header["delta"] == session.delta
        assert len(updates) == len(UPDATES)
        assert [u["seq"] for u in updates] == list(range(1, len(UPDATES) + 1))

    def test_rejected_updates_not_journaled(self, tmp_path):
        path = tmp_path / "s.jsonl"
        session = Session("s", num_vertices=4, beta=1, epsilon=0.4,
                          seed=0, journal=ReplayJournal(path))
        session.apply("insert", 0, 1)
        with pytest.raises(Exception):
            session.apply("insert", 0, 1)  # duplicate: rejected
        session.close()
        _, updates = read_journal(path)
        assert len(updates) == 1

    def test_closed_journal_refuses_writes(self, tmp_path):
        journal = ReplayJournal(tmp_path / "s.jsonl")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(JournalError):
            journal.record(1, "insert", 0, 1)


class TestFaults:
    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError, match="no such journal"):
            read_journal(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty journal"):
            read_journal(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(JournalError, match="bad header"):
            read_journal(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"format": "not-a-journal"}\n')
        with pytest.raises(JournalError, match="unknown journal format"):
            read_journal(path)

    def test_unhashable_format_is_unknown(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"format": ["a", "list"]}\n')
        with pytest.raises(JournalError, match="unknown journal format"):
            read_journal(path)

    def test_truncated_tail_is_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record_session(path)
        with path.open("a") as handle:
            handle.write('{"seq": 99, "op": "ins')  # kill mid-append
        _, updates = read_journal(path)
        assert len(updates) == len(UPDATES)

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record_session(path)
        lines = path.read_text().splitlines()
        lines[2] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="bad record"):
            read_journal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record_session(path)
        lines = path.read_text().splitlines()
        del lines[3]  # drop one interior update
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="sequence gap"):
            read_journal(path)

    def test_bad_op_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record_session(path, updates=UPDATES[:2])
        with path.open("a") as handle:
            handle.write(json.dumps(
                {"seq": 3, "op": "upsert", "u": 0, "v": 2}) + "\n")
            handle.write(json.dumps(
                {"seq": 4, "op": "insert", "u": 0, "v": 3}) + "\n")
        with pytest.raises(JournalError, match="bad op"):
            read_journal(path)


class TestReplay:
    @pytest.mark.parametrize("backend", [Session.backend])
    def test_replay_is_byte_identical(self, tmp_path, backend):
        path = tmp_path / "s.jsonl"
        recorded = record_session(path)
        replayed = replay_journal(path)
        assert replayed.backend == backend
        assert replayed.seq == recorded.seq
        assert (replayed.matching.mate.tobytes()
                == recorded.matching.mate.tobytes())
        assert replayed.fingerprint() == recorded.fingerprint()
        check_replay_sessions(recorded, replayed)

    @pytest.mark.parametrize("backend", [Session.backend])
    def test_replay_under_sanitizer_checks_draw_counts(self, tmp_path,
                                                       monkeypatch, backend):
        monkeypatch.setenv("REPRO_RNG_SANITIZE", "1")
        path = tmp_path / "s.jsonl"
        recorded = record_session(path)
        replayed = replay_journal(path)
        assert recorded.backend == backend
        assert recorded.rng_fingerprints() != ()
        check_replay_sessions(recorded, replayed)

    @pytest.mark.parametrize("backend", [*sorted(RETIRED_BACKENDS), "quantum"])
    def test_header_naming_another_backend_is_refused(self, tmp_path, backend):
        if backend in RETIRED_BACKENDS:
            message = (f"backend '{backend}' is retired.*repro "
                       + re.escape(RETIRED_BACKENDS[backend]))
        else:
            message = f"unknown backend '{backend}'"
        path = tmp_path / "s.jsonl"
        record_session(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["backend"] = backend
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match=message):
            replay_journal(path)

    def test_contract_catches_divergence(self, tmp_path):
        path = tmp_path / "s.jsonl"
        recorded = record_session(path)
        short = replay_journal(path, upto=3)
        with pytest.raises(ContractViolation):
            check_replay_sessions(recorded, short)

    def test_upto_time_travel(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record_session(path)
        partial = replay_journal(path, upto=2)
        assert partial.seq == 2
        assert sorted(partial.matcher.graph.edges()) == [(0, 1), (1, 2)]

    def test_replay_bad_header_fields(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record_session(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["rng"]["entropy"]
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="bad header fields"):
            replay_journal(path)


class TestJournalsFrom180:
    @pytest.mark.parametrize("name", JOURNALS_1_8_0)
    def test_v1_journal_is_rejected(self, name):
        path = FIXTURES / name
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "repro-service-journal-v1"
        assert JOURNAL_FORMAT == "repro-service-journal-v2"
        message = r"'repro-service-journal-v1'.*replay it with repro 2\.0\.0"
        with pytest.raises(JournalError, match=message):
            read_journal(path)
        with pytest.raises(JournalError, match=message):
            replay_journal(path)


class TestWorkAudit:
    def test_cap_violation_raises_after_journaling(self, tmp_path,
                                                   monkeypatch):
        fail_at = 4
        calls = []

        def failing_check(ops, budget_chunks, **kwargs):
            calls.append(ops)
            if len(calls) == fail_at:
                raise ContractViolation("forced work-cap violation")
            return 0.0

        monkeypatch.setenv("REPRO_WORK_AUDIT", "1")
        monkeypatch.setattr(session_module, "check_work_budget",
                            failing_check)
        path = tmp_path / "s.jsonl"
        with workmeter.audit():
            live = Session("audit", num_vertices=8, beta=1, epsilon=0.4,
                           seed=3, journal=ReplayJournal(path))
            for k, (op, u, v) in enumerate(UPDATES, start=1):
                if k == fail_at:
                    with pytest.raises(ContractViolation):
                        live.apply(op, u, v)
                else:
                    live.apply(op, u, v)
            live.flush_journal()
        assert live.seq == len(UPDATES)
        assert live.metrics.counters.snapshot()["updates"] == len(UPDATES)
        monkeypatch.delenv("REPRO_WORK_AUDIT")
        replayed = replay_journal(path)
        assert replayed.fingerprint() == live.fingerprint()
        check_replay_sessions(live, replayed)
