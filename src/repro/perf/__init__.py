"""Batched software throughput engine and benchmark harness.

The paper's §1 motivation is that backbone channels "cannot lose
processing speed running cryptography algorithms in general software".
This subpackage is the software side of that argument, engineered the
way high-traffic deployments actually run block ciphers:

- :mod:`repro.perf.backends` — pluggable bulk-encryption backends: the
  straightforward model (:class:`repro.aes.cipher.AES128`, the golden
  reference), the per-block T-table path (:mod:`repro.aes.fast`), and
  a word-sliced *batch* T-table backend that amortizes key expansion
  through an LRU round-key cache and processes many blocks per call —
  vectorized with numpy when available, pure Python otherwise.
- :mod:`repro.perf.evp` — OpenSSL EVP over ctypes: ECB blocks plus
  native CTR and one-shot GCM, registered only where libcrypto passes
  its known-answer tests.  ``auto`` selects it there, ``sliced``
  everywhere else.
- :mod:`repro.perf.engine` — :class:`~repro.perf.engine.BatchEngine`,
  one interface over every backend with ``concurrent.futures``
  sharding for the parallelizable modes (ECB, CTR keystream, GCTR);
  a backend with native modes runs CTR encryption in one call.
  Feedback modes (CBC/CFB) stay serial by construction — the paper's
  point that chaining makes per-block latency the whole story.
- :mod:`repro.perf.bench` — the benchmark harness: a pinned workload
  matrix (backend x mode x message size), a bit-for-bit equivalence
  gate against the golden model before any timing, and the persisted
  ``BENCH_software_throughput.json`` trajectory that later PRs assert
  no-regression against.

The bulk paths of :mod:`repro.aes.modes` and :mod:`repro.aes.gcm`
route through :func:`repro.perf.engine.default_engine`; GCM seals and
opens natively when that engine's backend offers it.
"""

from repro.perf.backends import (
    Backend,
    BaselineBackend,
    RoundKeyCache,
    SlicedBackend,
    TTableBackend,
    available_backends,
    get_backend,
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
    "BaselineBackend",
    "BatchEngine",
    "EvpBackend",
    "RoundKeyCache",
    "SlicedBackend",
    "TTableBackend",
    "available_backends",
    "default_engine",
    "forget_key",
    "get_backend",
    "have_evp",
    "have_numpy",
    "numpy_version",
    "openssl_version",
]
