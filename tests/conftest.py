"""Shared fixtures for the reproduction test suite."""

from __future__ import annotations

import random

import pytest

from repro.ip.control import Variant
from repro.ip.testbench import Testbench


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG — tests must not depend on global seeding."""
    return random.Random(0xAE5)


@pytest.fixture
def fips_key() -> bytes:
    """The FIPS-197 Appendix B key."""
    return bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture
def fips_plaintext() -> bytes:
    """The FIPS-197 Appendix B plaintext."""
    return bytes.fromhex("3243f6a8885a308d313198a2e0370734")


@pytest.fixture
def fips_ciphertext() -> bytes:
    """The FIPS-197 Appendix B ciphertext."""
    return bytes.fromhex("3925841d02dc09fbdc118597196a0b32")


@pytest.fixture
def encrypt_bench(fips_key) -> Testbench:
    """An encrypt-only core with the FIPS key loaded."""
    bench = Testbench(Variant.ENCRYPT)
    bench.load_key(fips_key)
    return bench


@pytest.fixture
def decrypt_bench(fips_key) -> Testbench:
    """A decrypt-only core with the FIPS key loaded (setup pass done)."""
    bench = Testbench(Variant.DECRYPT)
    bench.load_key(fips_key)
    return bench


@pytest.fixture
def both_bench(fips_key) -> Testbench:
    """A combined core with the FIPS key loaded."""
    bench = Testbench(Variant.BOTH)
    bench.load_key(fips_key)
    return bench


@pytest.fixture
def no_evp(monkeypatch) -> None:
    """The stack as it runs where no libcrypto passes its known-answer
    tests: ``auto`` is ``sliced``, and GCM runs the golden composition
    (AES128 + engine GCTR + the default GHASH provider)."""
    monkeypatch.setattr("repro.perf.evp._probe", lambda: None)
    monkeypatch.setattr("repro.perf.engine._DEFAULT", None)


def random_block(rng: random.Random) -> bytes:
    """A random 16-byte block."""
    return bytes(rng.randrange(256) for _ in range(16))


def random_key(rng: random.Random) -> bytes:
    """A random 16-byte key."""
    return bytes(rng.randrange(256) for _ in range(16))
