"""Width-checked signals and two-phase registers.

A :class:`Signal` models a combinational wire: it has a current value
that anything may read and (typically one) driver may write.  A
:class:`Register` models a D flip-flop bank: clocked processes assign
``reg.next``; the value only becomes visible at ``reg.commit()``, which
the simulator calls at the rising edge on every register written since
the last one.  This two-phase discipline is what makes the Python
model race-free in the same way synchronous HDL is: every clocked
process observes the *pre-edge* state regardless of evaluation order.

A simulated cycle reads far more values than it writes, so the two
sides cost differently.  A ``.value`` read is a C-level property
getter (:func:`operator.attrgetter`) that runs no Python frame; a
write (``Signal.value``, ``Register.next``, ``Register.deposit``)
tests type and width inline and calls :meth:`Signal._check` only to
raise, so every write is still checked.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional


class SignalError(ValueError):
    """Raised on width violations or illegal signal usage."""


class Signal:
    """A named wire carrying an unsigned integer of fixed bit width."""

    __slots__ = ("name", "width", "_value", "_mask")

    def __init__(self, name: str, width: int, reset: int = 0):
        if width < 1:
            raise SignalError(f"signal {name!r}: width must be >= 1")
        self.name = name
        self.width = width
        self._mask = (1 << width) - 1
        self._value = self._check(reset)

    def _write(self, new: int) -> None:
        if not (isinstance(new, int) and 0 <= new <= self._mask):
            self._check(new)
        self._value = new

    if TYPE_CHECKING:
        @property
        def value(self) -> int:
            return self._value

        @value.setter
        def value(self, new: int) -> None:
            self._write(new)
    else:
        # The same property, read through a C-level getter.
        value = property(attrgetter("_value"), _write,
                         doc="Current value of the wire.")

    def bit(self, index: int) -> int:
        """Read a single bit (LSB = 0)."""
        if not 0 <= index < self.width:
            raise SignalError(
                f"signal {self.name!r}: bit {index} out of range"
            )
        return (self._value >> index) & 1

    def bits(self, high: int, low: int) -> int:
        """Read a bit slice [high:low], both inclusive (LSB = 0)."""
        if not 0 <= low <= high < self.width:
            raise SignalError(
                f"signal {self.name!r}: slice [{high}:{low}] out of range"
            )
        return (self._value >> low) & ((1 << (high - low + 1)) - 1)

    def _check(self, value: int) -> int:
        """Return ``value`` if this wire can carry it, else raise."""
        if not isinstance(value, int):
            raise SignalError(
                f"signal {self.name!r}: value must be int, "
                f"got {type(value).__name__}"
            )
        if value & ~self._mask or value < 0:
            raise SignalError(
                f"signal {self.name!r}: value {value:#x} does not fit in "
                f"{self.width} bits"
            )
        return value

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, width={self.width}, " \
               f"value={self._value:#x})"


class Register(Signal):
    """A bank of D flip-flops with two-phase next/commit semantics.

    Reading ``reg.value`` always yields the pre-edge (Q) value; clocked
    processes write ``reg.next`` (D).  After every clocked process has
    run, the simulator commits together the registers written since
    the last edge, and every other register holds, so
    register-to-register transfers behave like real hardware.

    A register also remembers its reset value for :meth:`reset`, and
    tracks whether it was written this cycle so "hold" semantics (no
    assignment keeps the old value) come for free: the first write in
    a cycle puts it on the pending list of the simulator it is
    attached to, and the simulator commits only that list.
    """

    __slots__ = ("_next", "_reset", "_pending", "_queue")

    def __init__(self, name: str, width: int, reset: int = 0):
        super().__init__(name, width, reset)
        self._reset = reset
        self._next: Optional[int] = None
        self._pending = False
        #: The owning simulator's pending list (None while unowned).
        self._queue: Optional[List[Register]] = None

    @property
    def next(self) -> int:
        """The value scheduled for the coming edge (D input)."""
        if not self._pending:
            return self._value
        assert self._next is not None
        return self._next

    @next.setter
    def next(self, value: int) -> None:
        if not (isinstance(value, int) and 0 <= value <= self._mask):
            self._check(value)
        self._next = value
        if not self._pending:
            self._pending = True
            if self._queue is not None:
                self._queue.append(self)

    def attach(self, queue: List[Register]) -> None:
        """Report this register's writes to a simulator's pending list.

        A register reports to one list, the last attached.  One
        already written this cycle joins it at once, so it still
        latches at the coming edge.
        """
        self._queue = queue
        if self._pending:
            queue.append(self)

    def _refuse_write(self, new: int) -> None:
        raise SignalError(
            f"register {self.name!r}: assign .next, not .value "
            "(values change only at commit)"
        )

    if not TYPE_CHECKING:
        value = property(attrgetter("_value"), _refuse_write,
                         doc="The pre-edge (Q) value; read-only.")

    def commit(self) -> bool:
        """Latch the scheduled value; returns True if the value changed.

        Called by the simulator at the rising edge on every register
        written since the last one; a manual call latches early and
        leaves the simulator's call a no-op.  If no ``next`` was
        assigned this cycle the register holds.
        """
        if not self._pending:
            return False
        assert self._next is not None
        changed = self._next != self._value
        self._value = self._next
        self._next = None
        self._pending = False
        return changed

    def reset(self) -> None:
        """Return to the reset value immediately (async reset)."""
        self._value = self._reset
        self._next = None
        self._pending = False

    def deposit(self, value: int) -> None:
        """Force the stored value immediately, bypassing the clock.

        This is the fault-injection / debug backdoor (the simulator
        equivalent of ModelSim's ``deposit``): the SEU campaign in
        :mod:`repro.analysis.seu` uses it to flip state bits mid-run.
        Normal design code must never call it.
        """
        self._write(value)

    def __repr__(self) -> str:
        return f"Register({self.name!r}, width={self.width}, " \
               f"value={self._value:#x})"
