"""A small synchronous-RTL simulation kernel (the ModelSim substitute).

The paper's IP is a clocked VHDL design simulated with ModelSim.  We
model the same abstraction level in Python: named, width-checked
:class:`~repro.rtl.signal.Signal` wires, two-phase
:class:`~repro.rtl.signal.Register` flip-flops, and a
:class:`~repro.rtl.simulator.Simulator` that advances one clock cycle
at a time — clocked processes read pre-edge state and schedule next
values, the registers written commit atomically, then combinational
processes settle the outputs.  A :class:`~repro.rtl.trace.Trace` can
capture any signal every cycle and render a text waveform, which the
latency tests and the power model both consume.

This kernel is deliberately cycle-based (not event-driven with delta
cycles): the devices modeled here are fully synchronous single-clock
designs, and cycle-based semantics make the latency accounting exact.
"""

from repro.rtl.signal import Register, Signal, SignalError
from repro.rtl.simulator import Simulator
from repro.rtl.trace import Trace

__all__ = ["Register", "Signal", "SignalError", "Simulator", "Trace"]
