import functools
import io
import json
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from driftguard import archive as arch
from driftguard import bandit
from driftguard.archive import Archive, ArchiveEntry
from driftguard.errors import LoadError, PersistError
from driftguard.estimators import benchmark_catalog
from driftguard.reward import RewardBreakdown
from driftguard.schemes import build_problem_scheme

from simenv import (SimConfig, SimRecord, SimTrace, canonical_action,
                    canonical_method, run_sim_session, run_sim_sessions)


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
        assert arch.similarity(ps_g8, entry.problem) == pytest.approx(1.0)

    def test_bounded(self, ps_eq3, ps_g8, ps_beam, sobol_entry):
        a = Archive()
        entry = sobol_entry(a)
        for ps in (ps_eq3, ps_g8, ps_beam):
            assert 0.0 <= arch.similarity(ps, entry.problem) <= 1.0

    def test_dimension_kernel_decays(self, ps_eq3, ps_g8, sobol_entry):
        a = Archive()
        entry = sobol_entry(a)          # built from the d_in=8 problem
        assert arch.similarity(ps_g8, entry.problem) \
            > arch.similarity(ps_eq3, entry.problem)


class TestLookup:
    def test_empty_archive(self, ps_g8):
        assert Archive().lookup(ps_g8) == (None, 0.0)

    def test_best_entry_wins(self, ps_eq3, ps_g8):
        a = Archive()
        a.seed_entry(ps_eq3, canonical_action("Sobol"), 70.0, 3,
                     session_id="low-d")
        a.seed_entry(ps_g8, canonical_action("Sobol"), 91.0, 3,
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
        # A query with half its inputs Uniform and half Normal ties exactly
        # between g8 with every input Uniform and with every input Normal,
        # two problems with an entry each.
        query = replace(ps_g8, dist_family=("Uniform",) * 4 + ("Normal",) * 4)
        a.seed_entry(replace(ps_g8, dist_family=("Normal",) * 8),
                     canonical_action("Sobol"), 91.0, 3, session_id="normal")
        assert [e.session_id for e in a.entries] == ["newer", "normal"]
        assert a.lookup(query)[0].session_id == "normal"
        a.entries.reverse()
        assert a.lookup(query)[0].session_id == "newer"

    @hyp_settings(max_examples=40, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 2),
                                  st.sampled_from(("Sobol", "Morris", "CVM")),
                                  st.floats(0.0, 100.0)),
                        min_size=1, max_size=12))
    def test_matches_append_everything_oracle(self, ps_eq3, ps_g8, ps_beam,
                                              ops):
        problems = (ps_eq3, ps_g8, ps_beam)
        a, every = Archive(), []     # every: (session id, problem) added
        for k, (record, which, estimator, reward) in enumerate(ops):
            ps = problems[which]
            if record:
                entry = a.record_session(
                    _trace(ps, estimator, reward, f"rec-{k}"))
            else:
                entry = a.seed_entry(ps, canonical_action(estimator),
                                     reward, 3, session_id=f"seed-{k}")
            every.append((entry.session_id, ps))
            assert len(a.entries) == len({id(p) for _, p in every})
            for query in problems:
                entry, sim = a.lookup(query)
                assert (entry.session_id, float.hex(sim)) \
                    == _append_everything_lookup(every, query)


def _trace(ps, estimator: str, reward: float, session_id: str) -> SimTrace:
    """A finished two-iteration session on ``ps``."""
    trace = SimTrace(session_id=session_id, problem_scheme=ps)
    for n, est in enumerate((estimator, "Sobol"), start=1):
        trace.records.append(SimRecord(
            n=n, method=canonical_method(est, ps), executed_estimator=est,
            reward_total=reward / n))
    return trace


def _schema_1_features(ps) -> np.ndarray:
    """problem_features as schema 1 computed it, with the UQ slot. Every
    problem is an SA study with independent inputs and no field output;
    from d_in = 8 on it is high-dimensional."""
    families = ("Uniform", "Normal", "Other")
    hist = [0.0, 0.0, 0.0]
    for d in ps.dist_family:
        hist[families.index(d if d in families else "Other")] += 1
    total = max(sum(hist), 1.0)
    hist = [h / total for h in hist]
    return np.asarray((min(1.0, ps.d_in / 20.0),
                       min(1.0, ps.d_out / 10.0),
                       min(1.0, math.log10(max(ps.n_budget, 1)) / 6.0),
                       1.0,
                       0.0,
                       *hist,
                       0.0,
                       1.0 if ps.d_in >= 8 else 0.0,
                       0.0))


def _schema_1_similarity(current, stored) -> float:
    """archive.similarity as schema 1 computed it, between the problem of
    a lookup and the problem an entry was stored for."""
    f1, f2 = _schema_1_features(current), _schema_1_features(stored)
    denom = float(np.linalg.norm(f1) * np.linalg.norm(f2))
    cos = float(f1 @ f2) / denom if denom > 0 else 0.0
    task_eq = 1.0    # both are SA studies
    kernel = math.exp(-abs(current.d_in - stored.d_in)
                      / arch._DIM_KERNEL_WIDTH)
    score = arch._FEATURE_WEIGHT * cos + arch._TASK_WEIGHT * task_eq \
        + arch._DIM_WEIGHT * kernel
    return min(1.0, max(0.0, score))


def _append_everything_lookup(added, current) -> tuple[str, str]:
    """Lookup as schema 1 did it: over every (session id, problem) ever
    added, in insertion order, later entries winning ties. Kept as the
    oracle."""
    best, best_sim = None, 0.0
    for session_id, stored in added:
        sim = _schema_1_similarity(current, stored)
        if best is None or sim >= best_sim:
            best, best_sim = session_id, sim
    return best, float.hex(best_sim)


class TestPersistence:
    def test_round_trip(self, tmp_path, ps_g8, sobol_entry):
        path = str(tmp_path / "archive.json")
        a = Archive(path)
        sobol_entry(a)
        b = Archive(path)
        assert len(b.entries) == 1
        e = b.entries[0]
        assert e.problem == ps_g8
        assert e.per_arm_stats[0][1].mean_reward == 91.0
        assert arch.similarity(ps_g8, e.problem) == pytest.approx(1.0)

    def test_file_is_versioned_json(self, tmp_path, sobol_entry):
        path = str(tmp_path / "archive.json")
        sobol_entry(Archive(path))
        payload = json.loads(open(path).read())
        assert payload["schema_version"] == 4
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
        for payload in ({"schema_version": 99, "entries": []}, []):
            with open(path, "w") as fh:
                json.dump(payload, fh)
            with pytest.raises(LoadError):
                Archive(path)

    def test_persist_to_unwritable_path_raises(self, tmp_path, ps_g8):
        a = Archive(str(tmp_path / "no_such_dir" / "archive.json"))
        with pytest.raises(PersistError):
            a.seed_entry(ps_g8, canonical_action("Sobol"), 90.0, 3)
        assert a.entries == []            # rolled back, as documented
        with pytest.raises(PersistError):
            a.record_session(run_sim_session(SimConfig(iterations=5), seed=0))
        assert a.entries == []

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, ps_eq3,
                                                sobol_entry, monkeypatch):
        path = tmp_path / "archive.json"
        a = Archive(str(path))
        kept = sobol_entry(a, session_id="kept")
        a.seed_entry(ps_eq3, canonical_action("Sobol"), 70.0, 3,
                     session_id="other")
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PersistError):
            sobol_entry(a, session_id="lost")   # would replace "kept"
        assert list(tmp_path.glob("*.tmp")) == []
        assert path.read_bytes() == before
        assert [e.session_id for e in a.entries] == ["kept", "other"]
        assert a.entries[0] is kept

    def test_list_order_is_recency_order(self, tmp_path, ps_eq3, ps_beam,
                                         sobol_entry):
        path = str(tmp_path / "archive.json")
        a = Archive(path)
        sobol_entry(a, session_id="g8")
        a.seed_entry(ps_eq3, canonical_action("Sobol"), 70.0, 3,
                     session_id="eq3")
        a.seed_entry(ps_beam, canonical_action("Sobol"), 80.0, 3,
                     session_id="beam")
        assert [e.session_id for e in Archive(path).entries] \
            == ["g8", "eq3", "beam"]
        sobol_entry(a, session_id="g8-again")      # replaces "g8"
        assert [e.session_id for e in Archive(path).entries] \
            == ["eq3", "beam", "g8-again"]

    def test_schema_3_file_rejected(self, tmp_path, sobol_entry, ps_g8):
        # Schema 3 entries stored a descriptor of their problem, its d_in
        # and the best action and reward, and no problem.
        path = tmp_path / "archive.json"
        sobol_entry(Archive(str(path)))
        payload = json.loads(path.read_text())
        payload["schema_version"] = 3
        entry = payload["entries"][0]
        del entry["problem"]
        entry.update(d_in=8, problem_features=list(
            arch.problem_features(ps_g8)), best_action=["MonteCarlo",
                                                        "Sobol"],
                     best_reward=91.0)
        path.write_text(json.dumps(payload))
        before = path.read_bytes()
        with pytest.raises(LoadError, match="schema"):
            Archive(str(path))
        assert path.read_bytes() == before

    def test_schema_1_file_rejected(self, tmp_path, sobol_entry):
        path = tmp_path / "archive.json"
        sobol_entry(Archive(str(path)))
        payload = json.loads(path.read_text())
        # Schema 1 entries carried a sequence stamp and the task.
        payload["schema_version"] = 1
        payload["entries"][0].update(timestamp=0.0, task="SA")
        path.write_text(json.dumps(payload))
        before = path.read_bytes()
        with pytest.raises(LoadError):
            Archive(str(path))
        assert path.read_bytes() == before

    def test_feature_dimension_mismatch_rejected(self, tmp_path,
                                                 sobol_entry):
        # A stored vector whose length is not the policy's (32 under
        # schema 2) is refused at load, not mid-session.
        path = tmp_path / "archive.json"
        sobol_entry(Archive(str(path)))
        good = json.loads(path.read_text())
        dim = bandit.feature_dim()
        assert len(good["entries"][0]["per_arm_stats"][0][1]["phi"]) == dim
        snapshot = bandit.PolicyState().snapshot()
        bad_phi = json.loads(json.dumps(good))
        bad_phi["entries"][0]["per_arm_stats"][0][1]["phi"] += [0.0] * 4
        bad_precision = json.loads(json.dumps(good))
        bad_precision["entries"][0]["policy_snapshot"] = {
            **snapshot, "precision": np.eye(32).tolist()}
        bad_b = json.loads(json.dumps(good))
        bad_b["entries"][0]["policy_snapshot"] = {
            **snapshot, "b_vector": [0.0] * 32}
        for payload in (bad_phi, bad_precision, bad_b):
            path.write_text(json.dumps(payload))
            with pytest.raises(LoadError, match="dimension"):
                Archive(str(path))
        good["entries"][0]["policy_snapshot"] = snapshot
        path.write_text(json.dumps(good))
        loaded = Archive(str(path)).entries[0].policy_snapshot
        assert json.loads(json.dumps(loaded)) == snapshot

    def test_record_session_aggregates_arms(self, tmp_path):
        path = str(tmp_path / "sim.json")
        trace = run_sim_session(SimConfig(iterations=30), seed=0)
        a = Archive(path)
        entry = a.record_session(trace)
        arms = dict(entry.per_arm_stats)
        assert set(arms) <= {"Sobol", "Morris"}
        total = sum(s.count for s in arms.values())
        assert total == 30
        assert entry.problem is trace.problem_scheme
        again = Archive(path)
        assert dict(again.entries[0].per_arm_stats) == arms

    def test_failed_iterations_stay_out_of_the_entry(self, tmp_path,
                                                     monkeypatch):
        # A CP2 threshold of 0.68 fails some eq3 iterations. The policy
        # learned nothing from them, so they stay out of the entry.
        from collections import Counter
        from driftguard import checkpoints
        from driftguard.pipeline import SessionConfig, run_session
        from conftest import EQ3_PROBLEM
        monkeypatch.setitem(checkpoints.CHECKPOINT_TABLE, "CP2",
                            (0.68, True, False, "critic_reject"))
        path = str(tmp_path / "eq3.json")
        a = Archive(path)
        first = run_session(SessionConfig(problem=EQ3_PROBLEM, seed=3),
                            archive=a)
        learned = [r for r in first.records if not r.failed]
        assert len(learned) < len(first.records)
        counts = {est: s.count for est, s in a.entries[-1].per_arm_stats}
        assert counts == Counter(r.method.estimator for r in learned)
        second = run_session(SessionConfig(problem=EQ3_PROBLEM, seed=4),
                             archive=a)
        assert second.outcome != "aborted"
        dim = bandit.feature_dim()
        assert all(len(s.phi) == dim for e in Archive(path).entries
                   for _, s in e.per_arm_stats)
        # One failed and one learned iteration of the same estimator.
        failed_twin = replace(learned[0], plan=None, reward=RewardBreakdown(
            0.0, 0.0, 0.0, 0.0, ()))
        mixed = replace(first, records=[learned[0], failed_twin])
        entry = Archive().record_session(mixed)
        assert dict(entry.per_arm_stats)[learned[0].method.estimator] \
            == arch.ArmStats(count=1, mean_reward=learned[0].reward_total,
                             phi=bandit.encode_features(
                                 first.problem_scheme,
                                 learned[0].method.action))
        # Only failed iterations: nothing to learn, so the problem's entry
        # and the file stay as they were.
        before = list(a.entries)
        on_disk = (tmp_path / "eq3.json").read_bytes()
        all_failed = replace(first, records=[failed_twin, failed_twin])
        assert a.record_session(all_failed) is None
        assert a.entries == before
        assert (tmp_path / "eq3.json").read_bytes() == on_disk


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
    """Session ids of the entries whose JSON text gets computed, in order."""
    calls = []
    real = ArchiveEntry.json_text.func

    def counting(entry):
        calls.append(entry.session_id)
        return real(entry)
    prop = functools.cached_property(counting)
    prop.__set_name__(ArchiveEntry, "json_text")
    monkeypatch.setattr(ArchiveEntry, "json_text", prop)
    return calls


@pytest.fixture()
def three_problems(ps_eq3, ps_g8, ps_beam):
    """seed(archive, k): seed entry ``s<k>`` on the k-th of three problems,
    cycling, so every fourth call replaces an entry."""
    def seed(archive, k):
        ps = (ps_eq3, ps_g8, ps_beam)[k % 3]
        return archive.seed_entry(ps, canonical_action("Sobol"), 80.0 + k, 3,
                                  session_id=f"s{k}")
    return seed


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
        a.seed_entry(ps_eq3, canonical_action("Sobol"), 70.0, 3,
                     session_id="low-d")
        a.seed_entry(ps_g8, canonical_action("Morris"), 91.5, count=4,
                     session_id="high-d")
        assert path.read_bytes() == _old_writer_bytes(a.entries)

    def test_loaded_then_appended_matches_old_writer(self, tmp_path,
                                                     three_problems,
                                                     encode_count):
        path = tmp_path / "archive.json"
        a = Archive(str(path))
        for k in range(2):
            three_problems(a, k)
        del encode_count[:]
        b = Archive(str(path))
        assert encode_count == []           # loading encodes nothing
        run_sim_sessions(SimConfig(iterations=20), seed=6, n_sessions=1,
                         archive=b)         # replaces s1, the g8 entry
        three_problems(b, 2)
        assert [e.session_id for e in b.entries] == ["s0", "sim-1", "s2"]
        # The loaded entry is encoded lazily, once; the replaced one never.
        assert encode_count == ["s0", "sim-1", "s2"]
        assert path.read_bytes() == _old_writer_bytes(b.entries)

    def test_chain_encodes_each_entry_once(self, tmp_path, three_problems,
                                           encode_count):
        a = Archive(str(tmp_path / "archive.json"))
        for k in range(7):
            three_problems(a, k)
        run_sim_sessions(SimConfig(iterations=10), seed=1, n_sessions=2,
                         archive=a)
        assert encode_count == [f"s{k}" for k in range(7)] \
            + ["sim-1", "sim-2"]
        assert [e.session_id for e in a.entries] == ["s5", "s6", "sim-2"]

    def test_outside_edits_to_entries_stay_correct(self, tmp_path,
                                                   three_problems,
                                                   encode_count):
        path = tmp_path / "archive.json"
        a = Archive(str(path))
        for k in range(3):
            three_problems(a, k)
        del a.entries[1]
        a.entries.reverse()
        a.persist()
        assert path.read_bytes() == _old_writer_bytes(a.entries)
        assert len(encode_count) == 3        # nothing encoded twice
        a.entries.insert(0, replace(a.entries[0], session_id="outside",
                                    per_arm_stats=()))
        a.persist()
        assert path.read_bytes() == _old_writer_bytes(a.entries)
        assert len(encode_count) == 4


class TestReload:
    def test_reloaded_lookup_matches_in_memory(self, tmp_path):
        # An entry stores its problem and the descriptor is recomputed from
        # it, so a reloaded archive scores every query to the same bits.
        problems = [build_problem_scheme({
            "task": "SA", "model_id": m.id, "d_in": m.d_in, "d_out": m.d_out,
            "n_budget": 12_345, "epsilon": 0.05,
            "dist_family": list(m.dist_families())})
            for m in benchmark_catalog().values()]
        for k, stored in enumerate(problems):
            path = str(tmp_path / f"archive-{k}.json")
            in_memory = Archive(path)
            in_memory.seed_entry(stored, canonical_action("Sobol"), 80.0, 3)
            reloaded = Archive(path)
            assert reloaded.entries[0].problem == stored
            for query in problems:
                hexes = {float.hex(a.lookup(query)[1])
                         for a in (in_memory, reloaded)}
                assert hexes == {float.hex(arch.similarity(query, stored))}


class TestWarmStartPlumbing:
    def test_per_arm_stats_shape(self, ps_g8, sobol_entry):
        # The warm start replays the entry's own (estimator, ArmStats)
        # pairs.
        entry = sobol_entry(Archive())
        [(estimator, stats)] = entry.per_arm_stats
        assert estimator == "Sobol"
        assert stats.mean_reward == 91.0 and stats.count == 3
        assert len(stats.phi) == bandit.feature_dim()
