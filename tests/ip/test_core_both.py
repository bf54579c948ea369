"""The combined encrypt/decrypt device (enc/dec pin, paper §4)."""


from repro.aes.cipher import AES128
from repro.ip.control import Variant
from repro.ip.core import DIR_DECRYPT, DIR_ENCRYPT
from repro.ip.testbench import Testbench
from tests.conftest import random_block, random_key


class TestDirectionPin:
    def test_encrypt_direction(self, both_bench, fips_plaintext,
                               fips_ciphertext):
        result, _ = both_bench.encrypt(fips_plaintext)
        assert result == fips_ciphertext

    def test_decrypt_direction(self, both_bench, fips_plaintext,
                               fips_ciphertext):
        result, _ = both_bench.decrypt(fips_ciphertext)
        assert result == fips_plaintext

    def test_alternating_directions(self, rng):
        key = random_key(rng)
        bench = Testbench(Variant.BOTH)
        bench.load_key(key)
        golden = AES128(key)
        for _ in range(4):
            block = random_block(rng)
            ct, _ = bench.encrypt(block)
            assert ct == golden.encrypt_block(block)
            pt, _ = bench.decrypt(ct)
            assert pt == block

    def test_direction_sampled_at_block_start(self, both_bench,
                                              fips_plaintext,
                                              fips_ciphertext):
        # Flip the pin mid-run: the in-flight block must not change
        # direction.
        both_bench.write_block(fips_plaintext, direction=DIR_ENCRYPT)
        both_bench.core.encdec.value = DIR_DECRYPT
        result = both_bench.wait_result()
        assert result == fips_ciphertext


class TestLatencyParity:
    def test_both_directions_take_fifty_cycles(self, both_bench, rng):
        block = random_block(rng)
        _, enc_latency = both_bench.encrypt(block)
        _, dec_latency = both_bench.decrypt(block)
        assert enc_latency == dec_latency == 50

    def test_setup_pass_like_decrypt_device(self, fips_key):
        bench = Testbench(Variant.BOTH)
        assert bench.load_key(fips_key) == 41


class TestStructure:
    def test_has_both_sbox_banks(self):
        core = Testbench(Variant.BOTH).core
        assert core.sbox_f is not None
        assert core.sbox_i is not None

    def test_functional_rom_bits(self):
        # Functional model: fwd data + inv data + one shared KStran
        # bank = 24576 bits.  (The paper's area accounting duplicates
        # the KStran bank — covered by the fpga netlist tests.)
        assert Testbench(Variant.BOTH).core.rom_bits == 24576

    def test_cross_check_against_single_direction_devices(self, rng):
        key = random_key(rng)
        both = Testbench(Variant.BOTH)
        enc = Testbench(Variant.ENCRYPT)
        dec = Testbench(Variant.DECRYPT)
        for bench in (both, enc, dec):
            bench.load_key(key)
        block = random_block(rng)
        ct_both, _ = both.encrypt(block)
        ct_enc, _ = enc.encrypt(block)
        assert ct_both == ct_enc
        pt_both, _ = both.decrypt(ct_both)
        pt_dec, _ = dec.decrypt(ct_both)
        assert pt_both == pt_dec == block


class TestMixedStreaming:
    def test_interleaved_stream_with_buffering(self, rng):
        """Feed enc,dec,enc,dec... back-to-back through the buffer."""
        key = random_key(rng)
        bench = Testbench(Variant.BOTH)
        bench.load_key(key)
        golden = AES128(key)
        plain = [random_block(rng) for _ in range(3)]
        cipher = [golden.encrypt_block(b) for b in plain]
        jobs = []
        for p, c in zip(plain, cipher):
            jobs.append((p, DIR_ENCRYPT, golden.encrypt_block(p)))
            jobs.append((c, DIR_DECRYPT, p))
        results = []
        pending = list(jobs)
        bench.write_block(pending[0][0], direction=pending[0][1])
        submitted = 1
        budget = (len(jobs) + 2) * 200
        while len(results) < len(jobs) and budget:
            if submitted < len(jobs) and bench.core.can_accept:
                bench.write_block(pending[submitted][0],
                                  direction=pending[submitted][1])
                submitted += 1
            else:
                bench.simulator.step()
            if bench.core.data_ok.value == 1:
                results.append(bench.core.out_block())
            budget -= 1
        assert len(results) == len(jobs)
        for (block, direction, expected), got in zip(jobs, results):
            assert got == expected


class TestDoutPin:
    def test_dout_follows_the_out_register_every_cycle(self, rng):
        # ``dout`` is repacked only when the Out words change; sample
        # it against them after every edge, across results in both
        # directions, a deposit into Out, and a reset.
        bench = Testbench(Variant.BOTH)
        core = bench.core
        mismatches = []

        def check(cycle: int) -> None:
            packed = int.from_bytes(core.out_block(), "big")
            if core.dout.value != packed:
                mismatches.append(cycle)

        bench.simulator.add_trace_hook(check)
        bench.load_key(random_key(rng))
        blocks = [random_block(rng) for _ in range(3)]
        results, _ = bench.stream_blocks(blocks, DIR_ENCRYPT)
        bench.stream_blocks(results, DIR_DECRYPT)
        core.out[2].deposit(core.out[2].value ^ 0x80)
        bench.simulator.step(2)
        bench.simulator.reset()
        assert core.dout.value == 0
        bench.load_key(random_key(rng))
        bench.encrypt(blocks[0])
        assert mismatches == []
        assert core.dout.value == int.from_bytes(core.out_block(), "big")
