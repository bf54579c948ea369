"""The host cost of a simulated cycle, counted in Python calls.

The hardware's cost is an exact count (50 cycles per block, 40 key
set-up cycles), and so is the simulator's: the Python-level calls
(``sys.setprofile`` "call" events) one warm ``rtl_stream``-shaped
request makes per simulated cycle.  Register and pin reads are C-level
property getters, so none of those calls is a ``value`` read.
"""

import sys
from collections import Counter

from repro.aes.cipher import AES128
from repro.ip.control import Variant
from repro.ip.core import DIR_DECRYPT, DIR_ENCRYPT
from repro.ip.testbench import Testbench

#: 8 blocks encrypted, a key load with its 40-cycle set-up pass and
#: 8 blocks decrypted, on the BOTH core.
REQUEST_CYCLES = 843
MAX_CALLS_PER_CYCLE = 32


def _request_calls(rng):
    keys = [rng.randbytes(16) for _ in range(3)]
    plain = [rng.randbytes(16) for _ in range(8)]
    bench = Testbench(Variant.BOTH)
    bench.load_key(keys[0])

    def request(key):
        sealed = [AES128(key).encrypt_block(b) for b in plain]
        out, _ = bench.stream_blocks(plain, DIR_ENCRYPT)
        bench.load_key(key)
        back, _ = bench.stream_blocks(sealed, DIR_DECRYPT)
        assert back == plain
        return out

    request(keys[1])  # warm
    sealed = [AES128(keys[2]).encrypt_block(b) for b in plain]
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[f"{code.co_filename}:{code.co_name}"] += 1

    start = bench.simulator.cycle
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out, _ = bench.stream_blocks(plain, DIR_ENCRYPT)
        bench.load_key(keys[2])
        back, _ = bench.stream_blocks(sealed, DIR_DECRYPT)
    finally:
        sys.setprofile(previous)
    assert out == [AES128(keys[1]).encrypt_block(b) for b in plain]
    assert back == plain
    return calls, bench.simulator.cycle - start


def test_python_calls_per_simulated_cycle(rng):
    calls, cycles = _request_calls(rng)
    assert cycles == REQUEST_CYCLES
    per_cycle = sum(calls.values()) / cycles
    assert per_cycle <= MAX_CALLS_PER_CYCLE, calls.most_common(12)


def test_no_python_level_value_reads(rng):
    calls, _ = _request_calls(rng)
    getters = {name: n for name, n in calls.items()
               if name.endswith(":value")}
    assert getters == {}
