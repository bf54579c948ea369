"""The ablation cores refuse an illegal micro-state with ``ValueError``.

An upset control register can put a core where no legal run goes: the
multi-key core's round key outside its sliding window, or the
precomputed core's round past its key store.  Each core refuses that
state with ``ValueError``, which ``repro.analysis.seu.inject_once``
classifies as hung (the silicon's FSM lock-up), as ``RijndaelCore``
does.  The check is an explicit raise, not an ``assert``, so
``python -O`` keeps it: without it the multi-key core read its window
from the other end and returned a wrong block with no error.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ip.core import DIR_ENCRYPT
from repro.ip.multikey import MultiKeyTestbench
from repro.ip.precomputed import PrecomputedTestbench

#: (bench, key bits, register, value deposited at cycle 7 of a block).
CASES = [
    (MultiKeyTestbench, 256, "sched_pos", value)
    for value in range(15, 19)
] + [(PrecomputedTestbench, 128, "round", 13)]

_IDS = [f"{bench.__name__}-{bits}-{register}={value}"
        for bench, bits, register, value in CASES]


def _run(bench_class, bits, register, value):
    """One block with ``register`` forced to ``value`` at cycle 7."""
    bench = bench_class(bits)
    bench.load_key(bytes(range(bits // 8)))
    bench.write_block(bytes(16), direction=DIR_ENCRYPT)
    bench.simulator.step(7)
    getattr(bench.core, register).deposit(value)
    return bench.wait_result(max_cycles=400)


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_illegal_state_raises_value_error(case):
    with pytest.raises(ValueError):
        _run(*case)


_SCRIPT = """
from tests.ip.test_illegal_state import CASES, _run
assert not __debug__, "run with python -O"
for case in CASES:
    try:
        result = _run(*case)
    except ValueError:
        print("ValueError")
    else:
        print("returned", result.hex())
"""


def test_refusal_survives_python_optimize():
    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _SCRIPT], env=env, cwd=str(repo),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split("\n")
    assert out[:len(CASES)] == ["ValueError"] * len(CASES)
