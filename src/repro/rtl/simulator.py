"""Cycle-based simulator for synchronous single-clock designs.

Each :meth:`Simulator.step` models one rising clock edge in three
phases:

1. **clocked phase** — every registered clocked process runs, reading
   the pre-edge state and assigning ``Register.next``;
2. **commit phase** — the registers written since the last edge latch
   together; the rest hold;
3. **combinational phase** — every combinational process runs (in
   registration order, repeated until signals settle or an iteration
   bound trips) so module outputs reflect the post-edge state.

The combinational relaxation loop lets independently-written modules
chain outputs without manual topological ordering, while the iteration
bound turns accidental combinational loops into hard errors instead of
silent nondeterminism.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.rtl.signal import Register, Signal, SignalError

Process = Callable[[], None]

#: Upper bound on combinational relaxation sweeps per cycle.
_MAX_COMB_SWEEPS = 16


class Simulator:
    """Owns the clock, the registers, and the process lists."""

    def __init__(self) -> None:
        self._registers: List[Register] = []
        #: Registers written since the last edge, in first-write order.
        self._pending: List[Register] = []
        self._clocked: List[Process] = []
        self._comb: List[Process] = []
        self._watched: List[Signal] = []
        self._trace_hooks: List[Callable[[int], None]] = []
        self.cycle = 0

    # ---------------------------------------------------------------- build
    def register(self, name: str, width: int, reset: int = 0) -> Register:
        """Create a register owned by this simulator."""
        reg = Register(name, width, reset)
        self._registers.append(reg)
        reg.attach(self._pending)
        return reg

    def adopt(self, registers: Iterable[Register]) -> None:
        """Adopt externally-constructed registers (e.g. from a module).

        A register written before adoption latches at the next edge.
        """
        for reg in registers:
            if reg not in self._registers:
                self._registers.append(reg)
                reg.attach(self._pending)

    def add_clocked(self, process: Process) -> None:
        """Register a clocked process (runs before the edge commit)."""
        self._clocked.append(process)

    def add_comb(self, process: Process) -> None:
        """Register a combinational process (runs after commit)."""
        self._comb.append(process)

    def add_trace_hook(self, hook: Callable[[int], None]) -> None:
        """Call ``hook(cycle)`` at the end of every cycle."""
        self._trace_hooks.append(hook)

    def watch(self, *signals: Signal) -> None:
        """Mark signals whose settling the combinational loop monitors."""
        self._watched.extend(signals)

    @property
    def registers(self) -> List[Register]:
        """All registers the simulator clocks (trace/fault targets)."""
        return list(self._registers)

    # ------------------------------------------------------------------ run
    def settle(self) -> None:
        """Run only the combinational phase (e.g. after input changes).

        Testbenches call this after driving inputs mid-cycle so that
        outputs they sample reflect those inputs without advancing the
        clock.
        """
        self._run_comb()

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` rising edges."""
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        pending = self._pending
        for _ in range(cycles):
            for process in self._clocked:
                process()
            for reg in pending:
                reg.commit()
            pending.clear()
            self._run_comb()
            self.cycle += 1
            for hook in self._trace_hooks:
                hook(self.cycle)

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 10_000,
    ) -> int:
        """Step until ``condition()`` holds; returns cycles consumed.

        Raises ``TimeoutError`` after ``max_cycles`` — in testbench use
        that almost always means a handshake bug, so failing loudly
        beats hanging.
        """
        start = self.cycle
        while not condition():
            if self.cycle - start >= max_cycles:
                raise TimeoutError(
                    f"condition not met within {max_cycles} cycles"
                )
            self.step()
        return self.cycle - start

    def reset(self) -> None:
        """Asynchronously reset every register and re-settle."""
        for reg in self._registers:
            reg.reset()
        self._pending.clear()
        self._run_comb()

    # ------------------------------------------------------------- internal
    def _run_comb(self) -> None:
        if not self._watched:
            for process in self._comb:
                process()
            return
        previous: Optional[Dict[int, int]] = None
        for _ in range(_MAX_COMB_SWEEPS):
            for process in self._comb:
                process()
            snapshot = {id(s): s.value for s in self._watched}
            if snapshot == previous:
                return
            previous = snapshot
        raise SignalError(
            "combinational signals failed to settle "
            f"within {_MAX_COMB_SWEEPS} sweeps (combinational loop?)"
        )
