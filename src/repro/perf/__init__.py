"""Batched software throughput engine and its equivalence gate.

The paper's §1 motivation is that backbone channels "cannot lose
processing speed running cryptography algorithms in general software".
This subpackage is the software side of that argument, engineered the
way high-traffic deployments actually run block ciphers:

- :mod:`repro.perf.backends` — the backend interface and ``sliced``, a
  word-sliced *batch* T-table backend that amortizes key expansion
  through an LRU round-key cache and processes many blocks per call —
  numpy gathers where numpy imports, pure Python elsewhere.
- :mod:`repro.perf.evp` — ``evp``, OpenSSL EVP over ctypes: ECB blocks
  both ways plus native CTR and one-shot GCM, usable only where
  libcrypto passes its known-answer tests.
- :mod:`repro.perf.engine` — :class:`~repro.perf.engine.BatchEngine`,
  one interface over a backend for the parallelizable modes (ECB, CTR
  keystream, GCTR); a backend with native modes runs CTR encryption
  in one call.  :func:`~repro.perf.engine.default_engine` is the
  process's one engine: ``evp`` where its known-answer tests pass,
  ``sliced`` elsewhere, chosen once from what the host offers and
  never by the caller.
  Feedback modes (CBC/CFB) stay serial by construction — the paper's
  point that chaining makes per-block latency the whole story.
- :mod:`repro.perf.bench` — the equivalence gate behind ``repro-aes
  bench``: the host's backends and its GHASH bit for bit against the
  golden model.  Timing lives in ``bench/run.py``.

The bulk paths of :mod:`repro.aes.modes` and :mod:`repro.aes.gcm`
route through :func:`repro.perf.engine.default_engine`; GCM seals and
opens natively when that engine's backend offers it.
"""

from repro.perf.backends import (
    Backend,
    RoundKeyCache,
    SlicedBackend,
    have_numpy,
    numpy_version,
)
from repro.perf.engine import (
    BackendMismatch,
    BatchEngine,
    default_engine,
    forget_key,
)
from repro.perf.evp import EvpBackend, have_evp, openssl_version

__all__ = [
    "Backend",
    "BackendMismatch",
    "BatchEngine",
    "EvpBackend",
    "RoundKeyCache",
    "SlicedBackend",
    "default_engine",
    "forget_key",
    "have_evp",
    "have_numpy",
    "numpy_version",
    "openssl_version",
]
