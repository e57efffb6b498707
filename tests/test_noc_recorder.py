"""Tests for repro.noc.recorder (the hop log and the Fig. 8 BT scorer)."""

from __future__ import annotations

from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits.transitions import stream_transitions
from repro.noc.flit import make_packet
from repro.noc.recorder import HopLog, score_hops


def logged(links: dict[str, list[int]]) -> HopLog:
    """A hop log carrying ``links``' payloads one flit per cycle."""
    log = HopLog()
    for name, payloads in links.items():
        hops = log.link(name)
        for cycle, payload in enumerate(payloads):
            (flit,) = make_packet(0, 1, [payload], 64, packet_id=cycle).flits
            hops.flits.append(flit)
            hops.cycles.append(cycle)
            hops.vcs.append(0)
    return log


class TestScoreHops:
    def test_first_flit_free(self):
        score = score_hops(logged({"R0.EAST": [0xFFFF]}))
        assert score.per_link == {"R0.EAST": 0}
        assert score.flits == {"R0.EAST": 1}

    def test_second_flit_counts(self):
        score = score_hops(logged({"R0.EAST": [0b1100, 0b1010]}))
        assert score.per_link == {"R0.EAST": 2}

    def test_accumulation(self):
        score = score_hops(logged({"x": [0x0, 0xF, 0x0, 0xF]}))
        assert score.per_link == {"x": 12}
        assert score.flits == {"x": 4}

    def test_per_link_snapshot(self):
        score = score_hops(logged({"a": [0, 7], "b": [0, 1]}))
        assert score.per_link == {"a": 3, "b": 1}

    def test_total_equals_per_link_sum(self):
        score = score_hops(
            logged({"l0": [0x0, 0x5, 0x0], "l1": [0x3, 0xF]})
        )
        assert score.total == sum(score.per_link.values()) == 6

    def test_link_order_is_first_traversal_order(self):
        log = HopLog()
        log.link("b")
        log.link("a")
        assert log.link("b") is log.links["b"]
        assert list(score_hops(log).per_link) == ["b", "a"]

    def test_substituted_wire_images(self):
        log = logged({"a": [0x0, 0x1]})
        score = score_hops(log, wire=lambda flit: 0xFF * flit.packet_id)
        assert score.per_link == {"a": 8}

    def test_header_bits_follow_the_log(self):
        # Equal payloads to different destinations: only the side-band
        # header word differs.
        log = HopLog()
        hops = log.link("a")
        for cycle, dst in enumerate((1, 2)):
            hops.flits += make_packet(0, dst, [5], 64, packet_id=cycle).flits
            hops.cycles.append(cycle)
            hops.vcs.append(0)
        assert score_hops(log).total == 0
        log.include_header = True
        first, second = (flit.wire_bits(True) for flit in hops.flits)
        assert score_hops(log).total == (first ^ second).bit_count() > 0

    def test_empty_cut_windows(self):
        log = logged({"a": [0x0, 0x1, 0x3, 0x7]})
        score = score_hops(log, cuts=[2, 2, 3])
        assert score.windows == [1, 0, 1, 1]

    def test_no_windows_or_owners_unless_asked(self):
        score = score_hops(logged({"a": [0, 1]}))
        assert score.windows == []
        assert score.owner_transitions == {} == score.owner_flits


payload_streams = st.dictionaries(
    st.sampled_from(["R0.EAST", "R1.WEST", "R2.LOCAL", "R4.NORTH"]),
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=12),
    max_size=4,
)


@settings(deadline=None, max_examples=60)
@given(
    links=payload_streams,
    cuts=st.lists(st.integers(min_value=0, max_value=14), max_size=4),
    owned=st.sets(st.integers(min_value=0, max_value=11)),
)
def test_scorer_matches_stream_transitions(links, cuts, owned):
    """Per link, BTs equal stream_transitions of the link's wire images;
    window sums and owner sums (unowned flits included) each add up to
    the total."""
    cuts = sorted(cuts)
    log = logged(links)
    score = score_hops(
        log,
        cuts=cuts,
        owner=lambda flit: flit.packet_id if flit.packet_id in owned else None,
    )
    assert score.per_link == {
        name: stream_transitions(payloads)
        for name, payloads in links.items()
    }
    assert score.flits == {
        name: len(payloads) for name, payloads in links.items()
    }
    assert score.total == sum(score.per_link.values())
    assert len(score.windows) == len(cuts) + 1
    assert sum(score.windows) == score.total
    assert sum(score.owner_transitions.values()) == score.total
    assert sum(score.owner_flits.values()) == sum(score.flits.values())
    # Each hop's BTs land in the window of its own cycle.
    expected = [0] * (len(cuts) + 1)
    for payloads in links.values():
        for cycle in range(1, len(payloads)):
            expected[bisect_right(cuts, cycle)] += (
                payloads[cycle - 1] ^ payloads[cycle]
            ).bit_count()
    assert score.windows == expected
