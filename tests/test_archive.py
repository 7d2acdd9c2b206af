import io
import json
import os
from dataclasses import asdict

import pytest

from driftguard import archive as arch
from driftguard.archive import Archive, ArchiveEntry, ArmStats
from driftguard.errors import LoadError, PersistError
from driftguard.simenv import (SimConfig, canonical_action, run_sim_session,
                               run_sim_sessions)


@pytest.fixture()
def sobol_entry(ps_g8):
    def make(archive, reward=91.0, session_id="seed"):
        return archive.seed_entry(ps_g8, canonical_action("Sobol"), reward,
                                  count=3, session_id=session_id)
    return make


class TestSimilarity:
    def test_identical_problem_scores_one(self, ps_g8, sobol_entry):
        a = Archive()
        entry = sobol_entry(a)
        assert arch.similarity(ps_g8, entry) == pytest.approx(1.0)

    def test_bounded(self, ps_eq3, ps_g8, ps_beam, sobol_entry):
        a = Archive()
        entry = sobol_entry(a)
        for ps in (ps_eq3, ps_g8, ps_beam):
            assert 0.0 <= arch.similarity(ps, entry) <= 1.0

    def test_dimension_kernel_decays(self, ps_eq3, ps_g8, sobol_entry):
        a = Archive()
        entry = sobol_entry(a)          # built from the d_in=8 problem
        assert arch.similarity(ps_g8, entry) > arch.similarity(ps_eq3, entry)


class TestLookup:
    def test_empty_archive(self, ps_g8):
        assert Archive().lookup(ps_g8) == (None, 0.0)

    def test_best_entry_wins(self, ps_eq3, ps_g8):
        a = Archive()
        a.seed_entry(ps_eq3, canonical_action("Sobol"), 70.0,
                     session_id="low-d")
        a.seed_entry(ps_g8, canonical_action("Sobol"), 91.0,
                     session_id="high-d")
        entry, sim = a.lookup(ps_g8)
        assert entry.session_id == "high-d"
        assert sim == pytest.approx(1.0)

    def test_tie_goes_to_most_recent(self, ps_g8, sobol_entry):
        a = Archive()
        sobol_entry(a, session_id="older")
        sobol_entry(a, session_id="newer")
        entry, _ = a.lookup(ps_g8)
        assert entry.session_id == "newer"


class TestPersistence:
    def test_round_trip(self, tmp_path, ps_g8, sobol_entry):
        path = str(tmp_path / "archive.json")
        a = Archive(path)
        sobol_entry(a)
        b = Archive(path)
        assert len(b.entries) == 1
        e = b.entries[0]
        assert e.best_action == ("MonteCarlo", "Sobol", "Fixed_N", "Scalar")
        assert e.per_arm_stats[0][1].mean_reward == 91.0
        assert arch.similarity(ps_g8, e) == pytest.approx(1.0)

    def test_file_is_versioned_json(self, tmp_path, sobol_entry):
        path = str(tmp_path / "archive.json")
        sobol_entry(Archive(path))
        payload = json.loads(open(path).read())
        assert payload["schema_version"] == 1
        assert len(payload["entries"]) == 1

    def test_corrupt_file_raises_and_is_preserved(self, tmp_path):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(LoadError):
            Archive(path)
        assert open(path).read() == "{not json"   # never clobbered

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = str(tmp_path / "old.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 99, "entries": []}, fh)
        with pytest.raises(LoadError):
            Archive(path)

    def test_persist_to_unwritable_path_raises(self, tmp_path, ps_g8):
        a = Archive(str(tmp_path / "no_such_dir" / "archive.json"))
        with pytest.raises(PersistError):
            a.seed_entry(ps_g8, canonical_action("Sobol"), 90.0)
        assert a.entries == []            # rolled back, as documented
        with pytest.raises(PersistError):
            a.record_session(run_sim_session(SimConfig(iterations=5), seed=0))
        assert a.entries == []
        assert a._encoded == {}

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, ps_g8,
                                                sobol_entry, monkeypatch):
        path = tmp_path / "archive.json"
        a = Archive(str(path))
        sobol_entry(a, session_id="kept")
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PersistError):
            sobol_entry(a, session_id="lost")
        assert list(tmp_path.glob("*.tmp")) == []
        assert path.read_bytes() == before
        assert [e.session_id for e in a.entries] == ["kept"]

    def test_stamps_are_a_sequence(self, tmp_path, sobol_entry):
        path = str(tmp_path / "archive.json")
        a = Archive(path)
        for k in range(3):
            sobol_entry(a, session_id=f"s{k}")
        assert [e.timestamp for e in a.entries] == [0.0, 1.0, 2.0]
        b = Archive(path)
        assert sobol_entry(b).timestamp == 3.0

    def test_clock_stamped_file_loads_in_order(self, tmp_path, sobol_entry):
        path = tmp_path / "archive.json"
        a = Archive(str(path))
        sobol_entry(a, session_id="first")
        sobol_entry(a, session_id="second")
        payload = json.loads(path.read_text())
        # Files written before sequence stamps carry clock times.
        payload["entries"][0]["timestamp"] = 1760000002.5
        payload["entries"][1]["timestamp"] = 1760000001.25
        path.write_text(json.dumps(payload))
        b = Archive(str(path))
        assert [e.session_id for e in b.entries] == ["second", "first"]
        assert sobol_entry(b, session_id="third").timestamp == 1760000003.5

    def test_record_session_aggregates_arms(self, tmp_path):
        path = str(tmp_path / "sim.json")
        trace = run_sim_session(SimConfig(iterations=30), seed=0)
        a = Archive(path)
        entry = a.record_session(trace)
        arms = dict(entry.per_arm_stats)
        assert set(arms) <= {"Sobol", "Morris"}
        total = sum(s.count for s in arms.values())
        assert total == 30
        assert entry.best_reward == pytest.approx(trace.best_reward)
        again = Archive(path)
        assert dict(again.entries[0].per_arm_stats) == arms


def _old_writer_bytes(entries) -> bytes:
    """The archive writer before entries were encoded once: a deep asdict
    of every entry, streamed through json.dump. Kept as the oracle."""
    def to_json(entry):
        data = asdict(entry)
        data["per_arm_stats"] = [[est, asdict(stats)]
                                 for est, stats in entry.per_arm_stats]
        return data
    buf = io.StringIO()
    json.dump({"schema_version": arch.SCHEMA_VERSION,
               "entries": [to_json(e) for e in entries]}, buf, sort_keys=True)
    return buf.getvalue().encode("utf-8")


@pytest.fixture()
def encode_count(monkeypatch):
    calls = []
    real = arch._entry_to_json

    def counting(entry):
        calls.append(entry.session_id)
        return real(entry)
    monkeypatch.setattr(arch, "_entry_to_json", counting)
    return calls


class TestEncodeOnce:
    def test_record_session_chain_matches_old_writer(self, tmp_path):
        path = tmp_path / "archive.json"
        a = Archive(str(path))
        run_sim_sessions(SimConfig(iterations=20), seed=3, n_sessions=3,
                         archive=a)
        assert all(e.policy_snapshot for e in a.entries)
        assert path.read_bytes() == _old_writer_bytes(a.entries)

    def test_seed_entries_match_old_writer(self, tmp_path, ps_eq3, ps_g8):
        path = tmp_path / "archive.json"
        a = Archive(str(path))
        a.seed_entry(ps_eq3, canonical_action("Sobol"), 70.0,
                     session_id="low-d")
        a.seed_entry(ps_g8, canonical_action("Morris"), 91.5, count=4,
                     session_id="high-d")
        assert path.read_bytes() == _old_writer_bytes(a.entries)

    def test_loaded_then_appended_matches_old_writer(self, tmp_path,
                                                     encode_count):
        path = tmp_path / "archive.json"
        run_sim_sessions(SimConfig(iterations=20), seed=5, n_sessions=2,
                         archive=Archive(str(path)))
        del encode_count[:]
        b = Archive(str(path))
        assert encode_count == []           # loading encodes nothing
        run_sim_sessions(SimConfig(iterations=20), seed=6, n_sessions=1,
                         archive=b)
        assert len(b.entries) == 3
        assert len(encode_count) == 3       # loaded entries, lazily, once
        assert path.read_bytes() == _old_writer_bytes(b.entries)

    def test_chain_encodes_each_entry_once(self, tmp_path, encode_count):
        a = Archive(str(tmp_path / "archive.json"))
        n = 6
        run_sim_sessions(SimConfig(iterations=10), seed=1, n_sessions=n,
                         archive=a)
        assert len(encode_count) == n
        assert sorted(encode_count) == sorted(e.session_id
                                              for e in a.entries)

    def test_outside_edits_to_entries_stay_correct(self, tmp_path,
                                                   sobol_entry,
                                                   encode_count):
        path = tmp_path / "archive.json"
        a = Archive(str(path))
        for k in range(4):
            sobol_entry(a, reward=80.0 + k, session_id=f"s{k}")
        del a.entries[1]
        a.entries.reverse()
        a.persist()
        assert path.read_bytes() == _old_writer_bytes(a.entries)
        assert len(encode_count) == 4        # nothing encoded twice
        a.entries.insert(0, ArchiveEntry(**{**asdict(a.entries[0]),
                                            "session_id": "outside",
                                            "per_arm_stats": ()}))
        a.persist()
        assert path.read_bytes() == _old_writer_bytes(a.entries)
        assert len(encode_count) == 5
        assert set(id(e) for e in a.entries) == set(a._encoded)


class TestWarmStartPlumbing:
    def test_arm_stats_list_shape(self, ps_g8, sobol_entry):
        entry = sobol_entry(Archive())
        stats = entry.arm_stats_list()
        assert len(stats) == 1
        phi, mean_reward, count = stats[0]
        assert mean_reward == 91.0 and count == 3
        from driftguard import bandit
        assert len(phi) == bandit.feature_dim()
