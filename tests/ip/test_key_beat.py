"""The two-beat key load (192/256-bit keys) and its phase register.

A key wider than 128 bits takes two ``wr_key`` beats; ``key_beat``
remembers which one comes next.  Dropping ``setup`` ends the
configuration period, so a beat left pending by a stray or abandoned
load must not carry over into the next one.
"""

import pytest

from repro.aes.cipher import Rijndael
from repro.ip.multikey import MultiKeyTestbench
from repro.ip.precomputed import PrecomputedTestbench

BENCHES = [MultiKeyTestbench, PrecomputedTestbench]


@pytest.mark.parametrize("bits", [192, 256])
@pytest.mark.parametrize("bench_class", BENCHES)
def test_load_after_stray_beat_uses_the_key(bench_class, bits, rng):
    bench = bench_class(bits)
    core = bench.core
    # One stray beat inside a configuration period...
    core.setup.value = 1
    core.wr_key.value = 1
    core.din.value = rng.getrandbits(128)
    bench.simulator.step()
    bench._idle_pins()
    assert core.key_beat.value == 1
    # ...one idle edge (setup low), then a whole key load.
    bench.simulator.step()
    assert core.key_beat.value == 0
    key = rng.randbytes(bits // 8)
    block = rng.randbytes(16)
    bench.load_key(key)
    assert bench.encrypt(block)[0] == Rijndael(key).encrypt_block(block)
