"""The cycle-accurate Rijndael IP core (paper §4, Figs. 8–9).

One :class:`RijndaelCore` instantiates, on a
:class:`~repro.rtl.Simulator`:

- the pin-level interface of Table 1 (``clk`` is implicit in the
  simulator; ``setup``, ``wr_data``, ``wr_key``, ``din``, ``enc/dec``
  in; ``data_ok``, ``dout`` out);
- the **Data_In process**: a 128-bit capture register plus a one-deep
  pending buffer, so the bus can write the next block while the
  cipher runs (the paper's stated reason for registering the input);
- the **Out process**: a 128-bit result register — "transient results
  in data out are avoided" and the cipher can start the next block
  the same edge the previous result latches;
- the **Rijndael process**: the mixed 32/128-bit round engine — 4
  cycles of 32-bit (I)Byte Sub through a 4-S-box unit, 1 cycle of
  128-bit ShiftRow/MixColumn/AddKey — 5 cycles per round, 50 per
  block;
- the **Round Key process**: on-the-fly key generation in lock-step
  with the ByteSub cycles (forward for encryption; reverse for
  decryption, seeded by a 40-cycle setup pass after ``wr_key``).

Timing contract (asserted by tests):

================  =========================================  ========
event             measured from                              cycles
================  =========================================  ========
block latency     data-capture edge → result/``data_ok``     50
key setup pass    ``wr_key`` edge → ``key_ready``            40
streaming period  result edge → next result edge             50
================  =========================================  ========

With ``sync_rom=True`` (the future-work variant for devices whose
block RAM cannot read asynchronously, e.g. Cyclone M4K) the ROM reads
are pipelined and the round takes 6 cycles: latency 60, setup 50.

The pins, the Data_In and Out processes, the asynchronous-ROM round
engine and the bus accounting are :class:`BusCore`, which the ablation
cores of :mod:`repro.ip.precomputed` and :mod:`repro.ip.multikey`
share: a core supplies only its key source behind the one interface
and engine.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.ip.control import Phase, Variant, cycles_per_round
from repro.ip.datapath import (
    add_key_128,
    decrypt_mix_stage,
    encrypt_mix_stage,
    int_to_words,
    words_to_int,
)
from repro.ip.keysched_unit import KeyScheduleUnit
from repro.ip.sbox_unit import SubWordUnit
from repro.obs.hwcounters import HwCounters
from repro.rtl.signal import Register, Signal
from repro.rtl.simulator import Simulator

Word4 = Tuple[int, int, int, int]
#: One cycle of a round; returns True if the engine is idle after it.
_Step = Callable[[], bool]

# Top-level FSM encoding (the ``top`` register).
_IDLE = 0
_KEY_SETUP = 1
_RUN = 2

# Direction encoding (the ``enc/dec`` pin and ``direction`` register).
DIR_ENCRYPT = 0
DIR_DECRYPT = 1

# ``top`` encodings -> HwCounters phase names; any other value is idle.
_PHASE_NAMES = {_KEY_SETUP: "key_setup", _RUN: "run"}
_PHASES = {_IDLE: Phase.IDLE, _KEY_SETUP: Phase.KEY_SETUP, _RUN: Phase.RUN}


class BusCore:
    """The bus interface and round engine every cycle-accurate core shares.

    The pins of Table 1, the Data_In process (a capture register plus
    a one-deep pending buffer), the Out process (the result register
    behind ``dout``), the ``top``/``round``/``step``/``direction``
    control registers, the bus accounting, and the asynchronous-ROM
    round: Nr = Nk + 6 rounds of 4 (I)ByteSub word cycles through the
    ``sbox_f``/``sbox_i`` units and 1 wide ShiftRow/MixColumn/AddKey
    cycle.  A core supplies its S-box units, its key source through
    the key hooks (it must give ``_first_key`` and ``_round_key``;
    ``_start_keys``, ``_key_forward`` and ``_key_reverse`` default to
    no key work, all a stored schedule needs), the methods below
    that raise ``NotImplementedError`` and, if it has a key set-up
    phase, ``_tick_key_setup``.
    """

    #: The 6-cycle-round build with pipelined ROM reads (RijndaelCore).
    sync_rom = False
    sbox_f: Optional[SubWordUnit] = None
    sbox_i: Optional[SubWordUnit] = None
    #: The two-beat key load's phase (cores taking 192/256-bit keys).
    key_beat: Optional[Register] = None
    #: Whether a ``wr_key`` edge holds the engine for that cycle, a
    #: key load preempting whatever was running.
    key_load_holds = True

    def __init__(self, simulator: Simulator, variant: Variant,
                 name: str, key_bits: int = 128):
        if key_bits not in (128, 192, 256):
            raise ValueError("key_bits must be 128, 192 or 256")
        self.simulator = simulator
        self.variant = variant
        self.name = name
        self.key_bits = key_bits
        self.nk = key_bits // 32
        self.rounds = self.nk + 6
        #: Words in the expanded schedule, w[0 .. 4(Nr+1)-1].
        self.total_words = 4 * (self.rounds + 1)

        # ------------------------------------------------------ input pins
        self.setup = Signal(f"{name}_setup", 1)
        self.wr_data = Signal(f"{name}_wr_data", 1)
        self.wr_key = Signal(f"{name}_wr_key", 1)
        self.din = Signal(f"{name}_din", 128)
        #: Only the BOTH device has this pin (Table 1 footnote).
        self.encdec = Signal(f"{name}_encdec", 1)

        # ----------------------------------------------------- output pins
        self.dout = Signal(f"{name}_dout", 128)
        self.data_ok = simulator.register(f"{name}_data_ok", 1)
        # The Out words ``dout`` was last packed from.
        self._dout_words: Word4 = (0, 0, 0, 0)

        # ------------------------------------------------------- registers
        reg = simulator.register
        ctl = self._control_reg  # hardened subclasses triplicate these
        self.state = [reg(f"{name}_state_{i}", 32) for i in range(4)]
        self.out = [reg(f"{name}_out_{i}", 32) for i in range(4)]
        self.buf = [reg(f"{name}_buf_{i}", 32) for i in range(4)]
        self.buf_valid = ctl(f"{name}_buf_valid", 1)
        self.buf_dir = ctl(f"{name}_buf_dir", 1)
        self.top = ctl(f"{name}_top", 2, reset=_IDLE)
        self.round = ctl(f"{name}_round", 4, reset=1)
        self.step = ctl(f"{name}_step", 3)
        self.direction = ctl(f"{name}_direction", 1)

        # ----------------------------------------------- observability only
        #: Cycle-accurate hardware perf counters (not hardware state):
        #: ByteSub sub-cycles, round boundaries, key-schedule words,
        #: bus stalls/overlap, per-block latency records.
        self.counters = HwCounters(name=name)
        #: Blocks completed since construction (not a hardware register).
        self.blocks_processed = 0
        #: ``wr_data`` writes dropped because the buffer was full.
        self.bus_overruns = 0
        #: ``wr_data``/``wr_key`` pulses ignored due to the setup pin.
        self.protocol_errors = 0

        #: The round step each value of the ``direction`` bit selects.
        self._round_steps = self._direction_mux(self._tick_encrypt,
                                                self._tick_decrypt)

        simulator.add_clocked(self._tick)
        simulator.add_comb(self._drive_outputs)

    def _control_reg(self, name: str, width: int, reset: int = 0):
        """Create one control register.

        The base core uses plain flip-flops; the radiation-hardened
        subclass (:class:`repro.ip.hardened.HardenedRijndaelCore`)
        overrides this to return triple-modular-redundant registers.
        """
        return self.simulator.register(name, width, reset)

    # ------------------------------------------------------------- queries
    @property
    def phase(self) -> Phase:
        """Top-level FSM state as an enum."""
        return _PHASES[self.top.value]

    @property
    def busy(self) -> bool:
        """True while ciphering or running the key setup pass."""
        return self.top.value != _IDLE

    @property
    def can_accept(self) -> bool:
        """True when a ``wr_data`` this cycle will not be dropped."""
        return not self.buf_valid.value

    @property
    def latency_cycles(self) -> int:
        """Data-capture-to-result latency: Nr rounds of 5 cycles, or of
        6 on a sync-ROM build (50/60/70, or 60)."""
        return self.rounds * cycles_per_round(self.sync_rom)

    def out_words(self) -> Word4:
        """The Out register contents as 4 words."""
        o0, o1, o2, o3 = self.out
        return (o0.value, o1.value, o2.value, o3.value)

    def out_block(self) -> bytes:
        """The Out register contents as 16 bytes (bus order)."""
        return b"".join(w.to_bytes(4, "big") for w in self.out_words())

    # ------------------------------------------------------- clocked logic
    def _tick(self) -> None:
        # ``top`` and the pins hold still until the edge, so each is
        # read once.  The phase name is a direct lookup, not
        # self.phase: a fault campaign can flip ``top`` into an
        # illegal encoding mid-run, and counting must not crash the
        # simulation the checker is observing.
        top = self.top.value
        self.counters.cycle_tick(_PHASE_NAMES.get(top, "idle"))
        if self.data_ok.value:
            self.data_ok.next = 0
        setup = self.setup.value
        wr_data = self.wr_data.value

        # The ``wr_key`` side of the bus protocol (setup period only).
        key_edge = False
        if self.wr_key.value:
            if setup:
                key_edge = True
                self._load_key_beat(int_to_words(self.din.value))
            else:
                self.protocol_errors += 1
                self.counters.protocol_error()
        if not setup:
            # The configuration period is over: a key load left at
            # its second beat starts again from the first.
            beat = self.key_beat
            if beat is not None and beat.value:
                beat.next = 0

        # The engine; ``idle_after`` is True if idle after this edge.
        if key_edge and self.key_load_holds:
            idle_after = False
        elif top == _RUN:
            idle_after = self._round_steps[self.direction.value]()
        elif top == _KEY_SETUP:
            idle_after = self._tick_key_setup()
        else:
            idle_after = True
        self._service_data_port(idle_after, wr_data, setup)

    def _load_key_beat(self, words: Word4) -> None:
        """Latch one ``wr_key`` beat."""
        raise NotImplementedError

    def _tick_key_setup(self) -> bool:
        """One cycle of the key set-up phase; True once it ends.

        A core without one reads a flipped ``top`` as idle.
        """
        return True

    def _service_data_port(self, idle_after: bool, wr_data: int,
                           setup: int) -> None:
        """The Data_In process: capture, buffer, and block starts."""
        wr = wr_data and not setup
        if wr_data and setup:
            self.protocol_errors += 1
            self.counters.protocol_error()

        direct: Optional[Tuple[Word4, int]] = None
        if wr:
            direct = (int_to_words(self.din.value), self._pin_direction())

        if idle_after:
            if self.buf_valid.value:
                pending = (
                    tuple(reg.value for reg in self.buf),
                    self.buf_dir.value,
                )
                if self._can_start(pending[1]):
                    self._start_block(*pending)
                    self.buf_valid.next = 0
                    if direct is not None:
                        self._buffer(direct)
                    return
                # Pending block still blocked (key not ready): hold it.
                if direct is not None:
                    self.bus_overruns += 1
                    self.counters.stall()
                return
            if direct is not None:
                if self._can_start(direct[1]):
                    self._start_block(*direct)
                else:
                    self._buffer(direct)
            return

        # Engine stays busy: writes land in the one-deep buffer.
        if direct is not None:
            if self.buf_valid.value:
                self.bus_overruns += 1
                self.counters.stall()
            else:
                self._buffer(direct)
                self.counters.overlap()

    def _pin_direction(self) -> int:
        if self.variant is Variant.ENCRYPT:
            return DIR_ENCRYPT
        if self.variant is Variant.DECRYPT:
            return DIR_DECRYPT
        return self.encdec.value

    def _can_start(self, direction: int) -> bool:
        """Whether a block of ``direction`` may enter the engine now."""
        raise NotImplementedError

    def _buffer(self, item: Tuple[Word4, int]) -> None:
        words, direction = item
        for reg, word in zip(self.buf, words):
            reg.next = word
        self.buf_dir.next = direction
        self.buf_valid.next = 1

    def _start_block(self, words: Word4, direction: int) -> None:
        """The capture edge: the block enters the engine."""
        self.counters.block_start(
            self.simulator.cycle,
            "encrypt" if direction == DIR_ENCRYPT else "decrypt",
        )
        self._load_block(words, direction)
        self.direction.next = direction
        self.step.next = 0
        self.top.next = _RUN

    def _load_block(self, words: Word4, direction: int) -> None:
        """Load the state, the round counter and the key source.

        Encryption folds the initial Add Key into the load edge (state
        := din xor K0); decryption loads din raw and folds the final
        Add Key into the output edge — this is how Nr rounds x 5
        cycles covers the Nr + 1 Add Keys without extra cycles.
        """
        self._start_keys(direction)
        if direction == DIR_ENCRYPT:
            for reg, word, key in zip(self.state, words, self._first_key()):
                reg.next = word ^ key
            self.round.next = 1
        else:
            for reg, word in zip(self.state, words):
                reg.next = word
            self.round.next = self.rounds

    def _direction_mux(self, encrypt: _Step,
                       decrypt: _Step) -> Tuple[_Step, _Step]:
        """The datapath each value of the direction bit selects.

        Single-direction devices have the direction hardwired — both
        selections are the one datapath, so there is no mux for a
        flipped direction bit to steer, which matters for
        fault-injection fidelity.
        """
        if self.variant is Variant.ENCRYPT:
            return encrypt, encrypt
        if self.variant is Variant.DECRYPT:
            return decrypt, decrypt
        return encrypt, decrypt

    def _finish(self, result: Word4) -> bool:
        for reg, word in zip(self.out, result):
            reg.next = word
        self.data_ok.next = 1
        self.top.next = _IDLE
        self.blocks_processed += 1
        self.counters.block_end(self.simulator.cycle)
        return True

    # ---------------------------------------------------- key-source hooks
    def _start_keys(self, direction: int) -> None:
        """Point the key source at the block's first round (load edge)."""

    def _first_key(self) -> Word4:
        """K0: the encrypt load edge and the decrypt result edge add it."""
        raise NotImplementedError

    def _round_key(self, r: int) -> Word4:
        """The round key round ``r``'s wide stage adds."""
        raise NotImplementedError

    def _key_forward(self, s: int, r: int) -> None:
        """The key work of ByteSub cycle ``s`` (0..3) of round ``r``."""

    def _key_reverse(self, slot: int, r: int) -> None:
        """The key work of IByteSub cycle ``slot`` (0..3) of round ``r``."""

    # -------------------------------------------------------- round engine
    def _state_words(self) -> Word4:
        s0, s1, s2, s3 = self.state
        return (s0.value, s1.value, s2.value, s3.value)

    # encrypt, asynchronous ROM: steps 0..3 ByteSub words, step 4 mix stage
    def _tick_encrypt(self) -> bool:
        r = self.round.value
        s = self.step.value
        if s > 3:
            return self._encrypt_wide(r)
        assert self.sbox_f is not None
        self.state[s].next = self.sbox_f.lookup(self.state[s].value)
        self._key_forward(s, r)
        self.counters.bytesub()
        self.step.next = s + 1
        return False

    def _encrypt_wide(self, r: int) -> bool:
        """ShiftRow/MixColumn/AddKey; the last round's result goes out."""
        result = encrypt_mix_stage(
            self._state_words(),
            self._round_key(r),
            last_round=(r == self.rounds),
        )
        self.counters.mix()
        self.counters.round_end()
        if r == self.rounds:
            return self._finish(result)
        for reg, word in zip(self.state, result):
            reg.next = word
        self.round.next = r + 1
        self.step.next = 0
        return False

    # decrypt, asynchronous ROM: step 0 mix stage, steps 1..4 IByteSub
    def _tick_decrypt(self) -> bool:
        r = self.round.value
        s = self.step.value
        if s == 0:
            return self._decrypt_wide(r)
        slot = s - 1
        self._key_reverse(slot, r)
        assert self.sbox_i is not None
        substituted = self.sbox_i.lookup(self.state[slot].value)
        self.counters.bytesub()
        if slot < 3:
            self.state[slot].next = substituted
            self.step.next = s + 1
            return False
        return self._decrypt_round_end(r, substituted)

    def _decrypt_wide(self, r: int) -> bool:
        """AddKey/IMixColumn/IShiftRow, ahead of the round's IByteSub."""
        result = decrypt_mix_stage(
            self._state_words(),
            self._round_key(r),
            first_round=(r == self.rounds),
        )
        self.counters.mix()
        for reg, word in zip(self.state, result):
            reg.next = word
        self.step.next = 1
        return False

    def _decrypt_round_end(self, r: int, substituted: int) -> bool:
        """The round's last IByteSub word lands in ``state[3]``."""
        self.counters.round_end()
        if r > 1:
            self.state[3].next = substituted
            self.round.next = r - 1
            self.step.next = 0
            return False
        # Final round: fold the last Add Key (K0) into the output edge.
        full = (
            self.state[0].value,
            self.state[1].value,
            self.state[2].value,
            substituted,
        )
        return self._finish(add_key_128(full, self._first_key()))

    # ------------------------------------------------------- combinational
    def _drive_outputs(self) -> None:
        words = self.out_words()
        if words != self._dout_words:
            self._dout_words = words
            self.dout.value = words_to_int(words)


class RijndaelCore(BusCore):
    """The paper's AES-128 device on the RTL simulation kernel."""

    def __init__(
        self,
        simulator: Simulator,
        variant: Variant = Variant.BOTH,
        sync_rom: bool = False,
        name: str = "aes",
    ):
        super().__init__(simulator, variant, name)
        self.sync_rom = sync_rom
        ctl = self._control_reg
        self.key_ready = ctl(f"{name}_key_ready", 1,
                             reset=0 if variant.needs_setup_pass else 1)
        self.ks_round = ctl(f"{name}_ks_round", 4, reset=1)
        self.ks_word = ctl(f"{name}_ks_word", 3)

        # ----------------------------------------------------------- units
        self.keyunit = KeyScheduleUnit(f"{name}_ksu", sync_rom=sync_rom)
        simulator.adopt(self.keyunit.registers)
        if variant.can_encrypt:
            self.sbox_f = SubWordUnit(f"{name}_sbox_f", inverse=False,
                                      sync_rom=sync_rom)
            simulator.adopt(self.sbox_f.registers)
        if variant.can_decrypt:
            self.sbox_i = SubWordUnit(f"{name}_sbox_i", inverse=True,
                                      sync_rom=sync_rom)
            simulator.adopt(self.sbox_i.registers)
        if sync_rom:
            self._round_steps = self._direction_mux(
                self._tick_encrypt_sync, self._tick_decrypt_sync)

    # ------------------------------------------------------------- queries
    @property
    def rom_bits(self) -> int:
        """ROM bits in the *functional* model.

        Note: the paper's BOTH device is the encrypt and decrypt
        designs combined, each keeping its own KStran bank, so Table 2
        reports 32768 bits; the functional model shares one KStran
        bank (24576 bits here).  The area model in
        :mod:`repro.fpga.aes_netlists` counts the paper's duplicated
        structure.
        """
        bits = self.keyunit.rom_bits
        if self.sbox_f is not None:
            bits += self.sbox_f.rom_bits
        if self.sbox_i is not None:
            bits += self.sbox_i.rom_bits
        return bits

    # ------------------------------------------------------- clocked logic
    def _load_key_beat(self, words: Word4) -> None:
        self.keyunit.load_key(words)
        if self.variant.needs_setup_pass:
            self.keyunit.load_work(words)
            self.key_ready.next = 0
            self.ks_round.next = 1
            self.ks_word.next = 0
            self.top.next = _KEY_SETUP
        # Encrypt-only devices are ready the moment the key latches.

    def _can_start(self, direction: int) -> bool:
        if direction == DIR_ENCRYPT:
            return self.variant.can_encrypt
        return self.variant.can_decrypt and bool(self.key_ready.value)

    # ------------------------------------------- key source: on the fly
    def _start_keys(self, direction: int) -> None:
        unit = self.keyunit
        if direction == DIR_ENCRYPT:
            unit.load_work(unit.key0_words())
        else:
            unit.load_work(unit.key_last_words())

    def _first_key(self) -> Word4:
        return self.keyunit.key0_words()

    def _round_key(self, r: int) -> Word4:
        return self.keyunit.work_words()

    def _key_forward(self, s: int, r: int) -> None:
        value = self.keyunit.step_forward(s, r)
        self.counters.key_word()
        if s == 3:
            self.keyunit.commit_build(value, 3)

    def _key_reverse(self, slot: int, r: int) -> None:
        key_index, key_value = self.keyunit.step_reverse(slot, r)
        self.counters.key_word()
        if slot == 3:
            self.keyunit.commit_build(key_value, key_index)

    # ---------------------------------------------------- key setup pass
    def _tick_key_setup(self) -> bool:
        """One word of the forward expansion per cycle (40 cycles async).

        The sync-ROM build needs a fifth cycle per round to wait for
        the KStran read (50 cycles): word counter value 0 is the
        issue slot and words 0..3 shift one cycle later.
        """
        r = self.ks_round.value
        w = self.ks_word.value
        unit = self.keyunit
        index, kstran = w, None
        if self.sync_rom:
            if w == 0:  # issue the KStran read for this round
                unit.kstran_issue(unit.work_words()[3])
                self.ks_word.next = 1
                return False
            index = w - 1
            kstran = unit.kstran_data(r) if index == 0 else None
        value = unit.step_forward(index, r, kstran_value=kstran)
        self.counters.key_word()
        if index < 3:
            self.ks_word.next = w + 1
            return False
        committed = unit.commit_build(value, 3)
        self.ks_word.next = 0
        if r < self.rounds:
            self.ks_round.next = r + 1
            return False
        unit.latch_last(committed)
        self.key_ready.next = 1
        self.top.next = _IDLE
        self.counters.setup_pass_end()
        return True

    # ------------------------------ cipher round, synchronous ROM: 6 steps
    # encrypt: ROM reads pipelined one step ahead, step 5 the mix stage
    def _tick_encrypt_sync(self) -> bool:
        r = self.round.value
        s = self.step.value
        assert self.sbox_f is not None
        if s == 0:
            self.sbox_f.clock_read(self.state[0].value)
            self.keyunit.kstran_issue(self.keyunit.work_words()[3])
            self.counters.rom_issue()
            self.step.next = 1
            return False
        if 1 <= s <= 3:
            self.state[s - 1].next = self.sbox_f.registered_output
            self.sbox_f.clock_read(self.state[s].value)
            kstran = self.keyunit.kstran_data(r) if s == 1 else None
            self.keyunit.step_forward(s - 1, r, kstran_value=kstran)
            self.counters.bytesub()
            self.counters.key_word()
            self.step.next = s + 1
            return False
        if s == 4:
            self.state[3].next = self.sbox_f.registered_output
            value = self.keyunit.step_forward(3, r)
            self.keyunit.commit_build(value, 3)
            self.counters.bytesub()
            self.counters.key_word()
            self.step.next = 5
            return False
        return self._encrypt_wide(r)

    # decrypt: step 0 mix stage, then the pipelined IByteSub reads
    def _tick_decrypt_sync(self) -> bool:
        r = self.round.value
        s = self.step.value
        assert self.sbox_i is not None
        if s == 0:
            return self._decrypt_wide(r)
        if s == 1:
            self.sbox_i.clock_read(self.state[0].value)
            self.keyunit.step_reverse(0, r)  # build word 3
            self.counters.rom_issue()
            self.counters.key_word()
            self.step.next = 2
            return False
        if s == 2:
            self.state[0].next = self.sbox_i.registered_output
            self.sbox_i.clock_read(self.state[1].value)
            self.keyunit.step_reverse(1, r)  # build word 2
            self.keyunit.kstran_issue(self.keyunit.build[3].value)
            self.counters.bytesub()
            self.counters.key_word()
            self.step.next = 3
            return False
        if s == 3:
            self.state[1].next = self.sbox_i.registered_output
            self.sbox_i.clock_read(self.state[2].value)
            self.keyunit.step_reverse(2, r)  # build word 1
            self.keyunit.step_reverse(
                3, r, kstran_value=self.keyunit.kstran_data(r)
            )  # build word 0
            self.counters.bytesub()
            self.counters.key_word()
            self.counters.key_word()
            self.step.next = 4
            return False
        if s == 4:
            self.state[2].next = self.sbox_i.registered_output
            self.sbox_i.clock_read(self.state[3].value)
            self.counters.bytesub()
            self.step.next = 5
            return False
        # s == 5: last word arrives; commit the recovered round key.
        substituted = self.sbox_i.registered_output
        previous_key = tuple(reg.value for reg in self.keyunit.build)
        self.keyunit.load_work(previous_key)
        self.counters.bytesub()
        return self._decrypt_round_end(r, substituted)
