"""Tests for waveform capture and toggle counting."""

import pytest

from repro.rtl.signal import Signal
from repro.rtl.simulator import Simulator
from repro.rtl.trace import Trace


def counter_sim():
    sim = Simulator()
    count = sim.register("count", 8)
    sim.add_clocked(lambda: setattr(count, "next",
                                    (count.value + 1) & 0xFF))
    return sim, count


class TestSampling:
    def test_history_per_cycle(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        sim.step(4)
        assert trace.history("count") == [1, 2, 3, 4]
        assert trace.cycles == [1, 2, 3, 4]

    def test_value_at(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        sim.step(5)
        assert trace.value_at("count", 3) == 3

    def test_value_at_unsampled_cycle(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        sim.step(2)
        with pytest.raises(KeyError):
            trace.value_at("count", 9)

    def test_unknown_signal(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        with pytest.raises(KeyError):
            trace.history("nope")

    def test_needs_signals(self):
        sim, _ = counter_sim()
        with pytest.raises(ValueError):
            Trace(sim, [])

    def test_duplicate_names_rejected(self):
        sim, count = counter_sim()
        other = Signal("count", 4)
        with pytest.raises(ValueError):
            Trace(sim, [count, other])


class TestQueries:
    def test_first_cycle_where(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        sim.step(10)
        assert trace.first_cycle_where("count", 7) == 7

    def test_first_cycle_where_never(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        sim.step(3)
        with pytest.raises(LookupError):
            trace.first_cycle_where("count", 200)

    def test_toggle_count_counter(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        sim.step(4)
        # 1->2 flips 2 bits, 2->3 flips 1, 3->4 flips 3.
        assert trace.toggle_count("count") == 6

    def test_toggle_count_static_signal(self):
        sim, count = counter_sim()
        static = Signal("static", 8, reset=0xAA)
        trace = Trace(sim, [static])
        sim.step(5)
        assert trace.toggle_count("static") == 0

    def test_toggle_count_unknown_signal(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        sim.step(2)
        with pytest.raises(KeyError, match="not traced"):
            trace.toggle_count("nope")

    def test_total_toggles_sums(self):
        sim, count = counter_sim()
        static = Signal("static", 8, reset=1)
        trace = Trace(sim, [count, static])
        sim.step(4)
        assert trace.total_toggles() == trace.toggle_count("count")


class TestRendering:
    def test_empty_trace(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        assert "empty" in trace.render()

    def test_render_contains_signal_names(self):
        sim, count = counter_sim()
        bit = Signal("flag", 1)
        sim.add_comb(lambda: setattr(bit, "value", count.value & 1))
        trace = Trace(sim, [count, bit])
        sim.step(6)
        art = trace.render()
        assert "count" in art and "flag" in art

    def test_render_limits_window(self):
        sim, count = counter_sim()
        trace = Trace(sim, [count])
        sim.step(100)
        art = trace.render(last=8)
        # Window shows the last 8 cycles (two header digits each).
        header = art.splitlines()[0]
        assert len(header.split()) == 8
