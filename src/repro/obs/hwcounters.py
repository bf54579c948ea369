"""Cycle-accurate hardware performance counters for the IP core.

Every cycle-accurate core (each :class:`~repro.ip.core.BusCore`:
:class:`~repro.ip.core.RijndaelCore` and the ablation cores of
:mod:`repro.ip.precomputed` and :mod:`repro.ip.multikey`) carries a
:class:`HwCounters` instance that the clocked process feeds as the
machine runs: one event per ByteSub word pass, per wide mix stage, per
key-schedule word, per round boundary, per bus stall/overlap.  An
observed run therefore *proves* the paper's headline micro-
architecture numbers instead of asserting them from the model — 4
ByteSub sub-cycles + 1 mix stage = 5 events per round, 10 rounds = 50
clock cycles per block, and a 40-cycle key-setup pass on decrypt-
capable devices.

:func:`expected_counters` computes what a conforming device must
report for a given workload straight from the declared architecture
(:mod:`repro.ip.control`), and the ``obs.counter-divergence`` check
rule (:mod:`repro.checks.obs`) fails the lint gate when an observed
run disagrees with the :mod:`repro.checks.fsm` model.  Both model
``RijndaelCore`` only; the ablation cores' figures (Nr = Nk + 6
rounds of 5 events, key words per block or per key load) are pinned
by tests.

The counters are plain Python integers bumped from code that is
already simulating hardware a cycle at a time, so they are always on:
on the BOTH core they are 3.0 of the 29.4 Python calls one simulated
cycle makes (``tests/ip/test_cycle_cost.py``'s request: 8 blocks
encrypted, a key load, 8 blocks decrypted).  :meth:`HwCounters.snapshot`
and :meth:`HwCounters.export_metrics` feed the observability pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ip.control import (
    NUM_ROUNDS,
    Variant,
    block_latency,
    cycles_per_round,
    key_setup_cycles,
)
from repro.obs.metrics import MetricsRegistry

#: Ceiling on retained per-block records, so a week-long soak run
#: cannot grow memory without bound.  Totals keep counting past it.
MAX_BLOCK_RECORDS = 4096


@dataclass(frozen=True)
class BlockRecord:
    """The per-block evidence trail of one cipher run."""

    direction: str            # "encrypt" | "decrypt"
    start_cycle: int          # simulator cycle of the capture edge
    end_cycle: int            # simulator cycle of the result edge
    rounds: int
    bytesub_cycles: int
    mix_cycles: int
    #: Sub-events (ByteSub words + mix stages + ROM issue slots)
    #: recorded in each round, in execution order.
    events_per_round: Tuple[int, ...]

    @property
    def cycles(self) -> int:
        """Capture-to-result latency of this block, in clocks."""
        return self.end_cycle - self.start_cycle


@dataclass
class HwCounters:
    """Event totals observed on one core since construction."""

    name: str = "aes"
    #: Total clock edges the core has seen, split by FSM phase.
    cycles: int = 0
    idle_cycles: int = 0
    run_cycles: int = 0
    setup_cycles: int = 0
    #: Datapath sub-events.
    bytesub_cycles: int = 0
    mix_cycles: int = 0
    rom_issue_cycles: int = 0
    rounds: int = 0
    blocks: int = 0
    #: Key-schedule words generated (in-run on-the-fly + setup pass).
    key_words: int = 0
    setup_passes: int = 0
    #: Bus-interface accounting: writes absorbed by the one-deep
    #: buffer while the engine ran (the paper's I/O overlap), writes
    #: dropped because the buffer was already full, and pulses that
    #: violated the setup-pin protocol.
    bus_overlap: int = 0
    bus_stalls: int = 0
    protocol_errors: int = 0
    block_records: List[BlockRecord] = field(default_factory=list)

    # transient per-block state
    _start_cycle: Optional[int] = None
    _direction: str = ""
    _round_events: int = 0
    _block_rounds: int = 0
    _block_bytesub: int = 0
    _block_mix: int = 0
    _events_per_round: List[int] = field(default_factory=list)

    # ------------------------------------------------------- cycle feed
    def cycle_tick(self, phase: str) -> None:
        """One clock edge; ``phase`` is a :class:`Phase` value name."""
        self.cycles += 1
        if phase == "run":
            self.run_cycles += 1
        elif phase == "key_setup":
            self.setup_cycles += 1
        else:
            self.idle_cycles += 1

    # ---------------------------------------------------- block events
    def block_start(self, cycle: int, direction: str) -> None:
        """The capture edge: a block entered the engine."""
        self._start_cycle = cycle
        self._direction = direction
        self._round_events = 0
        self._block_rounds = 0
        self._block_bytesub = 0
        self._block_mix = 0
        self._events_per_round = []

    def bytesub(self) -> None:
        """One 32-bit (I)ByteSub word pass completed."""
        self.bytesub_cycles += 1
        self._block_bytesub += 1
        self._round_events += 1

    def mix(self) -> None:
        """One 128-bit ShiftRow/MixColumn/AddKey stage completed."""
        self.mix_cycles += 1
        self._block_mix += 1
        self._round_events += 1

    def rom_issue(self) -> None:
        """One sync-ROM read-issue slot (6-cycle-round builds only)."""
        self.rom_issue_cycles += 1
        self._round_events += 1

    def key_word(self) -> None:
        """One key-schedule word generated."""
        self.key_words += 1

    def round_end(self) -> None:
        """A round boundary passed."""
        self.rounds += 1
        self._block_rounds += 1
        self._events_per_round.append(self._round_events)
        self._round_events = 0

    def block_end(self, cycle: int) -> None:
        """The result edge: the block's record is sealed."""
        self.blocks += 1
        if self._start_cycle is None:
            return  # counters attached mid-run; totals still count
        record = BlockRecord(
            direction=self._direction,
            start_cycle=self._start_cycle,
            end_cycle=cycle,
            rounds=self._block_rounds,
            bytesub_cycles=self._block_bytesub,
            mix_cycles=self._block_mix,
            events_per_round=tuple(self._events_per_round),
        )
        if len(self.block_records) < MAX_BLOCK_RECORDS:
            self.block_records.append(record)
        self._start_cycle = None

    # ------------------------------------------------------ bus events
    def setup_pass_end(self) -> None:
        """The key-setup pass finished (``key_ready`` raised)."""
        self.setup_passes += 1

    def overlap(self) -> None:
        """A write landed in the buffer while the engine was busy."""
        self.bus_overlap += 1

    def stall(self) -> None:
        """A write was dropped: buffer full or block start blocked."""
        self.bus_stalls += 1

    def protocol_error(self) -> None:
        """A pulse violated the setup-pin protocol."""
        self.protocol_errors += 1

    # ---------------------------------------------------------- export
    def snapshot(self) -> Dict[str, object]:
        """A JSON-able summary of the totals and per-block records."""
        return {
            "name": self.name,
            "cycles": self.cycles,
            "idle_cycles": self.idle_cycles,
            "run_cycles": self.run_cycles,
            "setup_cycles": self.setup_cycles,
            "bytesub_cycles": self.bytesub_cycles,
            "mix_cycles": self.mix_cycles,
            "rom_issue_cycles": self.rom_issue_cycles,
            "rounds": self.rounds,
            "blocks": self.blocks,
            "key_words": self.key_words,
            "setup_passes": self.setup_passes,
            "bus_overlap": self.bus_overlap,
            "bus_stalls": self.bus_stalls,
            "protocol_errors": self.protocol_errors,
            "block_records": [
                {
                    "direction": r.direction,
                    "cycles": r.cycles,
                    "rounds": r.rounds,
                    "bytesub_cycles": r.bytesub_cycles,
                    "mix_cycles": r.mix_cycles,
                    "events_per_round": list(r.events_per_round),
                }
                for r in self.block_records
            ],
        }

    def export_metrics(self, registry: MetricsRegistry,
                       variant: str) -> None:
        """Publish the totals as counters into ``registry``.

        Intended for a registry scoped to one observed run (the way
        ``repro-aes stats`` uses it), where the fresh counters start
        at zero and one export *is* the total.
        """
        labels = ("variant",)

        def publish(name: str, help_text: str, value: int) -> None:
            registry.counter(name, help_text, labels=labels).labels(
                variant=variant).inc(value)

        publish("repro_ip_cycles_total",
                "Clock cycles the core has run", self.cycles)
        publish("repro_ip_run_cycles_total",
                "Clock cycles spent ciphering", self.run_cycles)
        publish("repro_ip_setup_cycles_total",
                "Clock cycles spent in the key-setup pass",
                self.setup_cycles)
        publish("repro_ip_idle_cycles_total",
                "Clock cycles spent idle", self.idle_cycles)
        publish("repro_ip_bytesub_cycles_total",
                "32-bit (I)ByteSub word passes", self.bytesub_cycles)
        publish("repro_ip_mix_cycles_total",
                "128-bit ShiftRow/MixColumn/AddKey stages",
                self.mix_cycles)
        publish("repro_ip_rounds_total",
                "Cipher rounds completed", self.rounds)
        publish("repro_ip_blocks_total",
                "Blocks processed", self.blocks)
        publish("repro_ip_key_words_total",
                "Key-schedule words generated", self.key_words)
        publish("repro_ip_bus_overlap_total",
                "Writes absorbed by the input buffer while busy",
                self.bus_overlap)
        publish("repro_ip_bus_stalls_total",
                "Writes dropped or blocked at the bus interface",
                self.bus_stalls)
        publish("repro_ip_protocol_errors_total",
                "Setup-pin protocol violations", self.protocol_errors)


def expected_counters(variant: Variant, sync_rom: bool,
                      blocks: int, key_loads: int = 1,
                      ) -> Dict[str, int]:
    """What a conforming device must report for a given workload.

    Derived entirely from the declared architecture in
    :mod:`repro.ip.control`: ``blocks`` ciphered blocks after
    ``key_loads`` key loads.  Keys of the returned dict match
    :class:`HwCounters` attribute names.
    """
    per_round = cycles_per_round(sync_rom)
    setup = key_setup_cycles(sync_rom) if variant.needs_setup_pass \
        else 0
    return {
        "blocks": blocks,
        "rounds": NUM_ROUNDS * blocks,
        "bytesub_cycles": 4 * NUM_ROUNDS * blocks,
        "mix_cycles": NUM_ROUNDS * blocks,
        "rom_issue_cycles": (
            (per_round - 5) * NUM_ROUNDS * blocks if sync_rom else 0
        ),
        "run_cycles": block_latency(sync_rom) * blocks,
        "setup_cycles": setup * key_loads,
        "setup_passes": key_loads if variant.needs_setup_pass else 0,
        # 4 words per round, on the fly per block + once per setup
        # pass on decrypt-capable devices.
        "key_words": 4 * NUM_ROUNDS * (
            blocks + (key_loads if variant.needs_setup_pass else 0)
        ),
        "block_cycles": block_latency(sync_rom),
        # Every round cycle carries exactly one sub-event: 4 ByteSub
        # word passes + 1 mix stage (+ 1 ROM issue slot on sync-ROM
        # builds), so events per round equals cycles per round.
        "events_per_round": per_round,
    }
