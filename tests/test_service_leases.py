"""Lease table semantics under a fake clock.

Grants, heartbeat renewals, expiry, steals, and the missed-heartbeat
distinction are all deterministic here: the clock only moves when the
test says so.
"""

from __future__ import annotations

import pytest

from repro.service.leases import Lease, LeaseTable


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def table(clock):
    return LeaseTable(30.0, clock=clock)


class TestGrant:
    def test_grant_sets_deadline_and_counts(self, table, clock):
        lease = table.grant("j1", "w1", 1)
        assert isinstance(lease, Lease)
        assert lease.deadline == clock.now + 30.0
        assert lease.last_heartbeat == clock.now
        assert (table.granted, len(table)) == (1, 1)
        assert lease.jobs == ("j1",)
        # Only the holder may renew.
        assert table.renew("j1", "w2") is False
        assert table.renew("j1", "w1") is True

    def test_default_heartbeat_is_a_third_of_lease(self):
        assert LeaseTable(30.0).heartbeat_seconds == 10.0
        assert LeaseTable(30.0, heartbeat_seconds=2.0).heartbeat_seconds == 2.0

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            LeaseTable(0.0)
        with pytest.raises(ValueError):
            LeaseTable(30.0, heartbeat_seconds=0.0)


class TestRenew:
    def test_renew_pushes_deadline(self, table, clock):
        table.grant("j1", "w1", 1)
        clock.advance(20.0)
        assert table.renew("j1", "w1") is True
        assert table.renewed == 1
        clock.advance(20.0)  # 40s after grant, 20s after renewal
        assert table.expire() == []

    def test_renew_refused_for_non_holder(self, table):
        table.grant("j1", "w1", 1)
        assert table.renew("j1", "w2") is False
        assert table.renew("missing", "w1") is False
        assert table.renewed == 0

    def test_renew_refused_after_expiry(self, table, clock):
        table.grant("j1", "w1", 1)
        clock.advance(31.0)
        table.expire()
        # The worker is still computing, but its lease is gone: the
        # refusal is how it learns.
        assert table.renew("j1", "w1") is False


class TestExpire:
    def test_expire_pops_past_deadline_only(self, table, clock):
        table.grant("j1", "w1", 1)
        clock.advance(10.0)
        table.grant("j2", "w2", 1)
        clock.advance(21.0)  # j1 at 31s (dead), j2 at 21s (alive)
        expired = table.expire()
        assert [l.job_id for l in expired] == ["j1"]
        assert (table.expired, len(table)) == (1, 1)

    def test_expire_counts_missed_heartbeats(self, table, clock):
        # Silent for the whole lease: two beat intervals missed.
        table.grant("dead", "w1", 1)
        clock.advance(31.0)
        table.expire()
        assert table.heartbeats_missed == 1

    def test_slow_but_beating_holder_is_not_a_missed_heartbeat(
        self, clock
    ):
        # Renewals only push the deadline by lease_seconds; a holder
        # that beats but whose beats stop renewing (e.g. the server's
        # sweep raced a renewal) expires without counting as silent.
        table = LeaseTable(30.0, heartbeat_seconds=20.0, clock=clock)
        table.grant("slow", "w1", 1)
        clock.advance(25.0)
        table.renew("slow", "w1")
        clock.advance(31.0)
        table.expire()
        assert table.expired == 1
        assert table.heartbeats_missed == 0

    def test_explicit_now_overrides_clock(self, table, clock):
        table.grant("j1", "w1", 1)
        assert table.expire(now=clock.now + 31.0) != []


class TestStealAndRelease:
    def test_regrant_to_other_worker_counts_steal(self, table, clock):
        table.grant("j1", "w1", 1)
        clock.advance(31.0)
        table.expire()
        table.grant("j1", "w2", 2)
        assert table.stolen == 1
        assert table.renew("j1", "w1") is False
        assert table.renew("j1", "w2") is True

    def test_lapsed_unit_regranted_as_singles_counts_each_job(
        self, table, clock
    ):
        table.grant("j1", "w1", 1, ["j1", "j2"])
        clock.advance(31.0)
        (lapsed,) = table.expire()
        assert lapsed.jobs == ("j1", "j2")
        table.grant("j1", "w2", 2)
        table.grant("j2", "w2", 2)
        assert table.stolen == 2

    def test_regrant_to_same_worker_is_not_a_steal(self, table, clock):
        table.grant("j1", "w1", 1)
        clock.advance(31.0)
        table.expire()
        table.grant("j1", "w1", 2)
        assert table.stolen == 0

    def test_release_drops_and_returns(self, table):
        table.grant("j1", "w1", 1)
        lease = table.release("j1")
        assert lease is not None and lease.worker == "w1"
        assert table.release("j1") is None
        assert len(table) == 0

    def test_released_then_regranted_is_not_a_steal(self, table):
        table.grant("j1", "w1", 1)
        table.release("j1")
        table.grant("j1", "w2", 1)
        assert table.stolen == 0


class TestBookkeeping:
    def test_counters_snapshot(self, table, clock):
        table.grant("j1", "w1", 1)
        table.renew("j1", "w1")
        clock.advance(31.0)
        table.expire()
        table.grant("j1", "w2", 2)
        counters = table.counters()
        assert counters == {
            "service.leases.granted": 2,
            "service.leases.renewed": 1,
            "service.leases.expired": 1,
            "service.jobs.stolen": 1,
            "service.heartbeats.missed": 1,
        }
