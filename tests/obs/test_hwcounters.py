"""Hardware counters: the observed run proves the paper's numbers."""

import pytest

from repro.ip.control import Variant
from repro.ip.multikey import MultiKeyTestbench
from repro.ip.precomputed import PrecomputedTestbench
from repro.ip.testbench import Testbench
from repro.obs.hwcounters import (
    MAX_BLOCK_RECORDS,
    HwCounters,
    expected_counters,
)
from repro.obs.metrics import MetricsRegistry

KEY = bytes(range(16))
BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")


def _run(variant, sync_rom, blocks, encrypt=True):
    bench = Testbench(variant=variant, sync_rom=sync_rom)
    bench.load_key(KEY)
    for _ in range(blocks):
        if encrypt:
            bench.encrypt(BLOCK)
        else:
            bench.decrypt(BLOCK)
    return bench


class TestPaperInvariants:
    """The acceptance criteria of the observability issue."""

    def test_single_encrypt_is_50_cycles_10_rounds_of_5(self):
        bench = _run(Variant.ENCRYPT, False, 1)
        counters = bench.core.counters
        (record,) = counters.block_records
        assert record.cycles == 50
        assert record.rounds == 10
        assert record.events_per_round == (5,) * 10
        assert counters.run_cycles == 50
        assert counters.bytesub_cycles == 40
        assert counters.mix_cycles == 10
        assert counters.key_words == 40

    def test_decrypt_setup_pass_is_40_cycles(self):
        bench = Testbench(variant=Variant.DECRYPT)
        bench.load_key(KEY)
        counters = bench.core.counters
        assert counters.setup_cycles == 40
        assert counters.setup_passes == 1
        assert counters.key_words == 40

    def test_sync_rom_round_is_6_events(self):
        bench = _run(Variant.ENCRYPT, True, 1)
        (record,) = bench.core.counters.block_records
        assert record.cycles == 60
        assert record.events_per_round == (6,) * 10
        assert bench.core.counters.rom_issue_cycles == 10

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("sync_rom", (False, True))
    def test_every_flavour_matches_the_model(self, variant, sync_rom):
        blocks = 2
        bench = _run(variant, sync_rom, blocks,
                     encrypt=variant.can_encrypt)
        counters = bench.core.counters
        expected = expected_counters(variant, sync_rom, blocks)
        for name in ("blocks", "rounds", "bytesub_cycles",
                     "mix_cycles", "rom_issue_cycles", "run_cycles",
                     "setup_cycles", "setup_passes", "key_words"):
            assert getattr(counters, name) == expected[name], name
        for record in counters.block_records:
            assert record.cycles == expected["block_cycles"]
            assert set(record.events_per_round) == \
                {expected["events_per_round"]}

    @pytest.mark.parametrize("bits", (128, 192, 256))
    @pytest.mark.parametrize("bench_class", (PrecomputedTestbench,
                                             MultiKeyTestbench))
    def test_ablation_cores_count_every_round(self, bench_class, bits):
        # The shared round engine counts Nr rounds of 4 ByteSub + 1 mix
        # on every core; key words are counted where each core makes
        # them: once per key load in the precomputed expansion, per
        # block in the multi-key window.
        nk = bits // 32
        nr = nk + 6
        schedule_words = 4 * (nr + 1) - nk  # 40 / 46 / 52
        precomputed = bench_class is PrecomputedTestbench
        bench = bench_class(bits)
        bench.load_key(bytes(range(bits // 8)))
        counters = bench.core.counters
        setup = schedule_words if precomputed else 0
        assert (counters.setup_cycles, counters.setup_passes,
                counters.key_words) == (setup, int(precomputed), setup)
        bench.encrypt(BLOCK)
        if precomputed:
            bench.decrypt(BLOCK)
        else:
            bench.encrypt(BLOCK)
        assert [r.direction for r in counters.block_records] == \
            ["encrypt", "decrypt" if precomputed else "encrypt"]
        for record in counters.block_records:
            assert (record.cycles, record.rounds, record.bytesub_cycles,
                    record.mix_cycles) == (5 * nr, nr, 4 * nr, nr)
            assert record.events_per_round == (5,) * nr
        per_block = 0 if precomputed else schedule_words
        assert (counters.blocks, counters.rounds, counters.run_cycles,
                counters.bytesub_cycles, counters.mix_cycles,
                counters.rom_issue_cycles) == (2, 2 * nr, 10 * nr,
                                               8 * nr, 2 * nr, 0)
        assert (counters.setup_cycles, counters.setup_passes,
                counters.key_words) == (setup, int(precomputed),
                                        setup + 2 * per_block)

    def test_decrypt_direction_recorded(self):
        bench = _run(Variant.DECRYPT, False, 1, encrypt=False)
        (record,) = bench.core.counters.block_records
        assert record.direction == "decrypt"

    def test_idle_cycles_accumulate_between_blocks(self):
        bench = Testbench(variant=Variant.ENCRYPT)
        bench.load_key(KEY)
        for _ in range(5):
            bench.simulator.step()
        counters = bench.core.counters
        assert counters.idle_cycles >= 5
        assert counters.cycles == counters.idle_cycles + \
            counters.run_cycles + counters.setup_cycles


class TestCounterMechanics:
    def test_block_record_cap(self):
        counters = HwCounters()
        for i in range(MAX_BLOCK_RECORDS + 10):
            counters.block_start(i * 50, "encrypt")
            counters.block_end(i * 50 + 50)
        assert counters.blocks == MAX_BLOCK_RECORDS + 10
        assert len(counters.block_records) == MAX_BLOCK_RECORDS

    def test_block_end_without_start_counts_total_only(self):
        counters = HwCounters()
        counters.block_end(99)
        assert counters.blocks == 1
        assert counters.block_records == []

    def test_snapshot_is_jsonable(self):
        import json
        bench = _run(Variant.ENCRYPT, False, 1)
        snap = bench.core.counters.snapshot()
        doc = json.loads(json.dumps(snap))
        assert doc["blocks"] == 1
        assert doc["block_records"][0]["cycles"] == 50

    def test_export_metrics_publishes_totals(self):
        bench = _run(Variant.ENCRYPT, False, 2)
        registry = MetricsRegistry()
        bench.core.counters.export_metrics(registry, "encrypt")
        metric = registry.get("repro_ip_run_cycles_total")
        assert metric.labels(variant="encrypt").value == 100
        blocks = registry.get("repro_ip_blocks_total")
        assert blocks.labels(variant="encrypt").value == 2

    def test_legacy_core_attributes_still_tracked(self):
        bench = _run(Variant.ENCRYPT, False, 2)
        assert bench.core.blocks_processed == 2
        assert bench.core.counters.blocks == 2


class TestExpectedCounters:
    def test_encrypt_only_has_no_setup(self):
        exp = expected_counters(Variant.ENCRYPT, False, 3)
        assert exp["setup_cycles"] == 0
        assert exp["setup_passes"] == 0
        assert exp["key_words"] == 120

    def test_decrypt_capable_includes_setup_words(self):
        exp = expected_counters(Variant.BOTH, False, 3, key_loads=2)
        assert exp["setup_cycles"] == 80
        assert exp["setup_passes"] == 2
        assert exp["key_words"] == 40 * 5  # 3 blocks + 2 passes

    def test_sync_rom_scales_latency(self):
        exp = expected_counters(Variant.DECRYPT, True, 1)
        assert exp["block_cycles"] == 60
        assert exp["events_per_round"] == 6
        assert exp["rom_issue_cycles"] == 10
        assert exp["setup_cycles"] == 50
