"""Per-cycle signal capture: waveforms, toggle counts, text rendering.

A :class:`Trace` attaches to a :class:`~repro.rtl.simulator.Simulator`
and samples a chosen set of signals at the end of every cycle.  It
serves three consumers:

- latency tests, which assert on the cycle a signal changed;
- the power model (:mod:`repro.analysis.power`), which integrates bit
  toggle counts over a run;
- humans, via :meth:`render` — a compact text waveform in the spirit
  of a ModelSim wave window.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.rtl.signal import Signal
from repro.rtl.simulator import Simulator


class Trace:
    """Samples signals every cycle and answers questions about history."""

    def __init__(self, simulator: Simulator, signals: Sequence[Signal]):
        if not signals:
            raise ValueError("trace needs at least one signal")
        names = [s.name for s in signals]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate signal names in trace: {names}")
        self._signals = list(signals)
        self._history: Dict[str, List[int]] = {s.name: [] for s in signals}
        self._cycles: List[int] = []
        simulator.add_trace_hook(self._sample)

    def _sample(self, cycle: int) -> None:
        self._cycles.append(cycle)
        for signal in self._signals:
            self._history[signal.name].append(signal.value)

    # -------------------------------------------------------------- queries
    @property
    def cycles(self) -> List[int]:
        """The cycle numbers sampled so far."""
        return list(self._cycles)

    def history(self, name: str) -> List[int]:
        """All sampled values of one signal."""
        if name not in self._history:
            raise KeyError(f"signal {name!r} is not traced")
        return list(self._history[name])

    def value_at(self, name: str, cycle: int) -> int:
        """The signal's value at the end of a given cycle."""
        try:
            index = self._cycles.index(cycle)
        except ValueError:
            raise KeyError(f"cycle {cycle} was not sampled") from None
        return self._history[name][index]

    def first_cycle_where(self, name: str, value: int) -> int:
        """First sampled cycle at which the signal equals ``value``.

        Raises ``LookupError`` if it never does — latency tests rely on
        that to catch a handshake that never fires.
        """
        for cycle, sample in zip(self._cycles, self._history[name]):
            if sample == value:
                return cycle
        raise LookupError(f"signal {name!r} never reached {value:#x}")

    def toggle_count(self, name: str) -> int:
        """Total number of bit flips the signal underwent over the trace.

        The dynamic-power model sums this across the datapath
        registers: CMOS dynamic power is proportional to the switched
        capacitance, which toggle counts stand in for.
        """
        if name not in self._history:
            raise KeyError(f"signal {name!r} is not traced")
        samples = self._history[name]
        flips = 0
        for before, after in zip(samples, samples[1:]):
            flips += bin(before ^ after).count("1")
        return flips

    def total_toggles(self) -> int:
        """Toggle count summed over every traced signal."""
        return sum(self.toggle_count(s.name) for s in self._signals)

    # ------------------------------------------------------------ rendering
    def render(self, last: int = 32) -> str:
        """A text waveform of the most recent ``last`` cycles.

        One row per signal; single-bit signals render as ▁/▔ rails,
        multi-bit signals as hex values that repeat ``·`` while stable.
        """
        if not self._cycles:
            return "(empty trace)"
        cycles = self._cycles[-last:]
        width = max(len(s.name) for s in self._signals)
        header = " " * (width + 2) + " ".join(f"{c % 100:02d}" for c in cycles)
        rows = [header]
        for signal in self._signals:
            samples = self._history[signal.name][-last:]
            cells = []
            previous = None
            for sample in samples:
                if signal.width == 1:
                    cells.append("▔▔" if sample else "▁▁")
                elif sample == previous:
                    cells.append(" ·")
                else:
                    cells.append(f"{sample & 0xFF:02x}")
                previous = sample
            rows.append(f"{signal.name:<{width}}  " + " ".join(cells))
        return "\n".join(rows)
