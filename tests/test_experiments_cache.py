"""Cache layer: hit/miss, invalidation, corruption recovery,
cross-process claims, and concurrent-writer races."""

from __future__ import annotations

import json
import os
import threading
import time

from repro.accelerator.config import AcceleratorConfig
from repro.experiments.cache import ResultCache, code_version_tag
from repro.experiments.spec import JobSpec


def make_job(**config_overrides) -> JobSpec:
    kwargs = dict(width=2, height=2, n_mcs=1, max_tasks_per_layer=2)
    kwargs.update(config_overrides)
    return JobSpec(model="lenet", config=AcceleratorConfig(**kwargs))


RECORD = {"job_id": "x", "status": "ok", "result": {"bt": 1}}


class TestHitMiss:
    def test_empty_cache_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_job(make_job()) is None
        assert not cache.contains(make_job())
        assert len(cache) == 0

    def test_put_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put_job(job, RECORD)
        assert cache.get_job(job) == RECORD
        assert cache.contains(job)
        assert len(cache) == 1

    def test_hit_across_instances(self, tmp_path):
        job = make_job()
        ResultCache(tmp_path).put_job(job, RECORD)
        assert ResultCache(tmp_path).get_job(job) == RECORD


class TestInvalidation:
    def test_config_change_changes_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_job(make_job(), RECORD)
        assert cache.get_job(make_job(ordering="O2")) is None
        assert cache.get_job(make_job(seed=1)) is None
        assert cache.get_job(make_job(data_format="fixed8")) is None

    def test_workload_change_changes_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put_job(job, RECORD)
        other = JobSpec(
            model=job.model, config=job.config, image_seed=99
        )
        assert cache.get_job(other) is None

    def test_code_version_change_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, version_tag="aaa")
        old.put_job(make_job(), RECORD)
        new = ResultCache(tmp_path, version_tag="bbb")
        assert new.get_job(make_job()) is None
        # The old entry is untouched — rolling back the code revives it.
        assert old.get_job(make_job()) == RECORD

    def test_default_tag_is_stable_hash(self):
        assert ResultCache("unused").version_tag == code_version_tag()
        assert len(code_version_tag()) == 12


class TestCorruptionRecovery:
    def test_truncated_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put_job(job, RECORD)
        path = cache._path(cache.key_for(job))
        path.write_text(path.read_text()[:10])  # simulate torn write
        assert cache.get_job(job) is None
        assert cache.corrupt_dropped == 1
        assert not path.exists()
        # A fresh put repairs the entry.
        cache.put_job(job, RECORD)
        assert cache.get_job(job) == RECORD

    def test_non_object_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        key = cache.key_for(job)
        cache.put(key, RECORD)
        cache._path(key).write_text(json.dumps([1, 2, 3]))
        assert cache.get(key) is None
        assert cache.corrupt_dropped == 1


class TestClaims:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim("k1") is True
        assert cache.claim("k1") is False
        cache.release_claim("k1")
        assert cache.claim("k1") is True

    def test_release_of_missing_claim_is_fine(self, tmp_path):
        ResultCache(tmp_path).release_claim("never-claimed")

    def test_claims_are_per_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim("k1") is True
        assert cache.claim("k2") is True

    def test_claim_visible_across_instances(self, tmp_path):
        # Two ResultCache objects on the same root stand in for two
        # worker processes sharing a cache directory.
        assert ResultCache(tmp_path).claim("k1") is True
        assert ResultCache(tmp_path).claim("k1") is False

    def test_stale_claim_is_stolen(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim("k1") is True
        # Age the claim file past the stale window.
        path = cache._claim_path("k1")
        old = time.time() - 1000.0
        os.utime(path, (old, old))
        assert cache.claim("k1", stale_seconds=600.0) is True

    def test_fresh_claim_is_not_stolen(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim("k1") is True
        assert cache.claim("k1", stale_seconds=600.0) is False

    def test_exactly_one_of_many_claimants_wins(self, tmp_path):
        # The O_CREAT|O_EXCL race: N threads claim the same key at
        # once; exactly one may win.
        cache = ResultCache(tmp_path)
        wins = []
        barrier = threading.Barrier(8)

        def claimant():
            barrier.wait()
            if cache.claim("hot-key"):
                wins.append(threading.get_ident())

        threads = [threading.Thread(target=claimant) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1


class TestConcurrentWriters:
    def test_racing_writers_leave_one_valid_entry(self, tmp_path):
        # Atomic temp-then-rename: many writers hammer the same key
        # with different records; the survivor must be one of them,
        # whole, and digest-clean — never an interleaved hybrid.
        cache = ResultCache(tmp_path)
        job = make_job()
        key = cache.key_for(job)
        records = [
            {"job_id": "x", "status": "ok", "result": {"writer": i}}
            for i in range(8)
        ]
        barrier = threading.Barrier(8)

        def writer(i):
            barrier.wait()
            for _ in range(25):
                cache.put(key, records[i])

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = cache.get(key)
        assert final in records
        assert cache.corrupt_dropped == 0
        report = cache.verify()
        assert (report["checked"], report["ok"]) == (1, 1)
        assert report["corrupt"] == []

    def test_reader_races_writer_without_serving_garbage(self, tmp_path):
        # Verify-on-read vs a concurrent writer: every successful get
        # must return a complete record, and the entry must never be
        # quarantined by the race itself (rename is atomic).
        cache = ResultCache(tmp_path)
        key = "deadbeef" * 8
        records = [
            {"job_id": "x", "status": "ok", "result": {"v": i}}
            for i in range(4)
        ]
        cache.put(key, records[0])
        stop = threading.Event()
        served: list[dict] = []

        def writer():
            i = 0
            while not stop.is_set():
                cache.put(key, records[i % len(records)])
                i += 1

        def reader():
            while not stop.is_set():
                record = cache.get(key)
                if record is not None:
                    served.append(record)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert served
        assert all(r in records for r in served)
        assert cache.corrupt_dropped == 0


class TestVerifySweep:
    def test_verify_reports_clean_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_job(make_job(), RECORD)
        cache.put_job(make_job(ordering="O1"), RECORD)
        report = cache.verify()
        assert report["root"] == str(tmp_path)
        assert (report["checked"], report["ok"]) == (2, 2)
        assert report["corrupt"] == []
        assert report["quarantined"] == []

    def test_verify_quarantines_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        good, bad = make_job(), make_job(ordering="O1")
        cache.put_job(good, RECORD)
        cache.put_job(bad, RECORD)
        victim = cache._path(cache.key_for(bad))
        # Flip a byte inside the record body: still valid JSON, wrong
        # digest — exactly what only the envelope check can catch.
        text = victim.read_text().replace('"bt": 1', '"bt": 7')
        victim.write_text(text)
        report = cache.verify()
        assert report["ok"] == 1
        assert report["corrupt"] == [
            str(victim.relative_to(tmp_path))
        ]
        assert not victim.exists()
        assert len(report["quarantined"]) == 1
        assert report["quarantined"][0].endswith(".corrupt")
        # The good entry still serves; the bad one re-simulates.
        assert cache.get_job(good) == RECORD
        assert cache.get_job(bad) is None

    def test_verify_without_quarantine_only_reports(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put_job(job, RECORD)
        victim = cache._path(cache.key_for(job))
        victim.write_text("not json")
        report = cache.verify(quarantine=False)
        assert len(report["corrupt"]) == 1
        assert victim.exists()  # left in place for inspection
        assert cache.quarantined() == []

    def test_non_envelope_entry_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        path = cache._path(cache.key_for(job))
        path.parent.mkdir(parents=True)
        bare = json.dumps({"status": "ok", "bogus": 1})  # no envelope
        path.write_text(bare)
        report = cache.verify(quarantine=False)
        assert report["ok"] == 0
        assert report["corrupt"] == [str(path.relative_to(tmp_path))]
        assert "legacy" not in report
        # Never served as a record: read, it is quarantined.
        assert cache.get_job(job) is None
        assert not path.exists()
        assert cache.corrupt_dropped == 1

    def test_quarantined_listing(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put_job(job, RECORD)
        victim = cache._path(cache.key_for(job))
        victim.write_text("garbage")
        cache.verify()
        names = cache.quarantined()
        assert names == [victim.name + ".corrupt"]


class TestHousekeeping:
    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_job(make_job(), RECORD)
        cache.put_job(make_job(ordering="O1"), RECORD)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get_job(make_job()) is None
