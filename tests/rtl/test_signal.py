"""Tests for signals and two-phase registers."""

from enum import IntEnum

import pytest

from repro.rtl.signal import Register, Signal, SignalError


class TestSignal:
    def test_initial_value(self):
        assert Signal("s", 8, reset=0x42).value == 0x42

    def test_assignment(self):
        sig = Signal("s", 8)
        sig.value = 0xFF
        assert sig.value == 0xFF

    def test_width_enforced(self):
        sig = Signal("s", 4)
        with pytest.raises(SignalError):
            sig.value = 16

    def test_negative_rejected(self):
        sig = Signal("s", 4)
        with pytest.raises(SignalError):
            sig.value = -1

    def test_non_int_rejected(self):
        sig = Signal("s", 4)
        with pytest.raises(SignalError):
            sig.value = "3"  # type: ignore[assignment]

    def test_zero_width_rejected(self):
        with pytest.raises(SignalError):
            Signal("s", 0)

    def test_bit_access(self):
        sig = Signal("s", 8, reset=0b10100101)
        assert sig.bit(0) == 1
        assert sig.bit(1) == 0
        assert sig.bit(7) == 1

    def test_bit_out_of_range(self):
        with pytest.raises(SignalError):
            Signal("s", 8).bit(8)

    def test_slice_access(self):
        sig = Signal("s", 8, reset=0xA5)
        assert sig.bits(7, 4) == 0xA
        assert sig.bits(3, 0) == 0x5

    def test_bad_slice(self):
        with pytest.raises(SignalError):
            Signal("s", 8).bits(3, 5)

    def test_repr_contains_name(self):
        assert "clk" in repr(Signal("clk", 1))


class TestRegister:
    def test_value_not_directly_writable(self):
        reg = Register("r", 8)
        with pytest.raises(SignalError):
            reg.value = 1  # type: ignore[misc]

    def test_next_then_commit(self):
        reg = Register("r", 8)
        reg.next = 0x55
        assert reg.value == 0  # not yet visible
        assert reg.commit() is True
        assert reg.value == 0x55

    def test_commit_without_assignment_holds(self):
        reg = Register("r", 8, reset=7)
        assert reg.commit() is False
        assert reg.value == 7

    def test_commit_reports_no_change(self):
        reg = Register("r", 8, reset=9)
        reg.next = 9
        assert reg.commit() is False

    def test_next_property_reads_pending(self):
        reg = Register("r", 8)
        assert reg.next == 0
        reg.next = 3
        assert reg.next == 3
        assert reg.value == 0

    def test_last_write_wins(self):
        reg = Register("r", 8)
        reg.next = 1
        reg.next = 2
        reg.commit()
        assert reg.value == 2

    def test_width_checked_on_next(self):
        reg = Register("r", 4)
        with pytest.raises(SignalError):
            reg.next = 16

    def test_reset(self):
        reg = Register("r", 8, reset=0xAA)
        reg.next = 0x55
        reg.commit()
        reg.next = 0x11
        reg.reset()
        assert reg.value == 0xAA
        # Pending write is discarded by reset.
        assert reg.commit() is False
        assert reg.value == 0xAA

    def test_deposit_bypasses_clock(self):
        reg = Register("r", 8)
        reg.deposit(0x7F)
        assert reg.value == 0x7F

    def test_deposit_checks_width(self):
        with pytest.raises(SignalError):
            Register("r", 4).deposit(0x10)


class Level(IntEnum):
    HIGH = 9


WIDTH = 4
ACCEPTED = [0, (1 << WIDTH) - 1, True, Level.HIGH]
REJECTED = [
    (-1, "signal 'w': value -0x1 does not fit in 4 bits"),
    (1 << WIDTH, "signal 'w': value 0x10 does not fit in 4 bits"),
    ("3", "signal 'w': value must be int, got str"),
    (1.0, "signal 'w': value must be int, got float"),
]


def _assign_value(value):
    sig = Signal("w", WIDTH)
    sig.value = value
    return sig.value


def _assign_next(value):
    reg = Register("w", WIDTH)
    reg.next = value
    assert reg.next == value
    assert reg.commit() is bool(value)
    return reg.value


def _deposit(value):
    reg = Register("w", WIDTH)
    reg.deposit(value)
    return reg.value


WRITES = [_assign_value, _assign_next, _deposit]


class TestEveryWriteChecked:
    """Each write path accepts and refuses the same values, with the
    same messages, whatever its fast path."""

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("value", ACCEPTED)
    def test_accepted(self, write, value):
        assert write(value) == value

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("value,message", REJECTED)
    def test_rejected(self, write, value, message):
        with pytest.raises(SignalError) as info:
            write(value)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [value for value, _ in REJECTED])
    def test_rejected_next_leaves_nothing_pending(self, value):
        reg = Register("w", WIDTH, reset=5)
        with pytest.raises(SignalError):
            reg.next = value
        assert reg.commit() is False
        assert reg.value == 5
