"""OpenSSL EVP backend over ctypes: AES-NI for ECB, CTR and GCM.

The RTOS multi-FPGA line of work treats AES engines as swappable
units behind one fabric; the software analogue is registering the
platform's best engine — OpenSSL's EVP AES-128, which runs on AES-NI
where the CPU has it — behind the same :class:`Backend` interface the
pure-Python backends implement.  Beyond ECB blocks it offers the modes
natively: AES-128-CTR, and one-shot AES-128-GCM seal and open, so a
served CTR or GCM request is one libcrypto call instead of Python
counter generation, block encryption, XOR and GHASH.

Everything is gated: no libcrypto, a missing symbol, or a failed
known-answer test (FIPS-197 C.1 ECB, SP 800-38A F.5.1 CTR, GCM cases
with a 12-byte and a 60-byte IV, and a flipped tag that must fail)
means :func:`have_evp` is false, the backend never registers, and
``auto`` selects ``sliced``.  Where the tests pass, ``auto`` selects
this backend.  No new Python dependencies — ctypes only.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading
from typing import Any, Optional, Tuple

from repro.aes.vectors import (
    FIPS197_APPENDIX_C1,
    GCM_VECTORS,
    SP800_38A_CTR128_CIPHERTEXT,
    SP800_38A_CTR128_COUNTER0,
    SP800_38A_ECB128_KEY,
    SP800_38A_ECB128_PLAINTEXT,
)
from repro.perf.backends import Backend, Buffer, as_buffer

_BLOCK = 16

#: GCM tag length: only full tags are set or returned.  A shorter tag
#: handed to ``EVP_CTRL_GCM_SET_TAG`` would verify as a truncated tag.
TAG_BYTES = 16

#: Longest GCM IV libcrypto accepts (OpenSSL 3 caps it at 1024 bits).
GCM_MAX_IV_BYTES = 128

#: Bytes per ``EVP_CipherUpdate`` call.  Its length argument is a C
#: ``int``, which ctypes wraps silently above 2^31 - 1, so every
#: buffer is fed in chunks no larger than this.
_CHUNK = 1 << 30

# EVP_CIPHER_CTX_ctrl commands (openssl/evp.h).
_GCM_SET_IVLEN = 0x9
_GCM_GET_TAG = 0x10
_GCM_SET_TAG = 0x11

_CANDIDATES: Tuple[Optional[str], ...] = (
    ctypes.util.find_library("crypto"),
    "libcrypto.so.3",
    "libcrypto.so.1.1",
    "libcrypto.so",
    "libcrypto.dylib",
    "libcrypto-3-x64.dll",
)


def _bind(lib: ctypes.CDLL, name: str, restype: Any,
          *argtypes: Any) -> Any:
    # Indexing makes a private function object: setting its types
    # leaves the library's shared attribute alone.
    function = lib[name]
    function.restype = restype
    function.argtypes = argtypes
    return function


def _ok(result: int, call: str) -> None:
    if result != 1:
        raise RuntimeError(f"{call} failed")


def _address(data: bytes) -> int:
    """Where ``data``'s bytes live; valid while the caller holds it."""
    return ctypes.cast(data, ctypes.c_void_p).value or 0


class _PyBuffer(ctypes.Structure):
    """CPython's ``Py_buffer``, which ``PyObject_GetBuffer`` fills."""

    _fields_ = [("buf", ctypes.c_void_p), ("obj", ctypes.c_void_p),
                ("len", ctypes.c_ssize_t),
                ("itemsize", ctypes.c_ssize_t),
                ("readonly", ctypes.c_int), ("ndim", ctypes.c_int),
                ("format", ctypes.c_void_p), ("shape", ctypes.c_void_p),
                ("strides", ctypes.c_void_p),
                ("suboffsets", ctypes.c_void_p),
                ("internal", ctypes.c_void_p)]


# The interpreter's C API, called with the GIL held: a result is a
# ``bytes`` allocated uninitialised and filled in place by libcrypto,
# and a payload is read in place through the buffer protocol.
_new_bytes = _bind(ctypes.pythonapi, "PyBytes_FromStringAndSize",
                   ctypes.py_object, ctypes.c_void_p, ctypes.c_ssize_t)
_bytes_at = _bind(ctypes.pythonapi, "PyBytes_AsString",
                  ctypes.c_void_p, ctypes.py_object)
_get_buffer = _bind(ctypes.pythonapi, "PyObject_GetBuffer", ctypes.c_int,
                    ctypes.py_object, ctypes.POINTER(_PyBuffer),
                    ctypes.c_int)
_release_buffer = _bind(ctypes.pythonapi, "PyBuffer_Release", None,
                        ctypes.POINTER(_PyBuffer))

#: ``PyBUF_SIMPLE``: a contiguous buffer, or ``BufferError``.
_PYBUF_SIMPLE = 0


class _Lib:
    """Resolved libcrypto handle plus the EVP entry points we use.

    Every primitive takes validated ``bytes`` (or, for the payload, a
    contiguous one-dimensional ``'B'`` view of them) and runs in a fresh
    cipher context, so the backend is thread-safe under the batch
    engine's executor with zero shared state.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        void, cint = ctypes.c_void_p, ctypes.c_int
        self.new = _bind(lib, "EVP_CIPHER_CTX_new", void)
        self.free = _bind(lib, "EVP_CIPHER_CTX_free", None, void)
        self.ciphers = {mode: _bind(lib, f"EVP_aes_128_{mode}", void)
                        for mode in ("ecb", "ctr", "gcm")}
        self.init = _bind(lib, "EVP_CipherInit_ex", cint, void, void,
                          void, ctypes.c_char_p, ctypes.c_char_p, cint)
        self.update = _bind(lib, "EVP_CipherUpdate", cint, void, void,
                            ctypes.POINTER(cint), void, cint)
        self.final = _bind(lib, "EVP_CipherFinal_ex", cint, void, void,
                           ctypes.POINTER(cint))
        self.ctrl = _bind(lib, "EVP_CIPHER_CTX_ctrl", cint, void, cint,
                          cint, void)
        self.set_padding = _bind(lib, "EVP_CIPHER_CTX_set_padding",
                                 cint, void, cint)
        version = getattr(lib, "OpenSSL_version", None)
        if version is not None:
            version.restype = ctypes.c_char_p
            version.argtypes = (ctypes.c_int,)
            self.version = version(0).decode("ascii", "replace")
        else:
            self.version = "OpenSSL (version symbol unavailable)"

    def _new_context(self) -> int:
        """A fresh cipher context for one call; the caller frees it."""
        ctx = self.new()
        if not ctx:
            raise RuntimeError("EVP_CIPHER_CTX_new failed")
        return ctx

    def _key(self, ctx: int, mode: str, key: bytes, iv: bytes = b"",
             encrypt: bool = True) -> None:
        """Key ``ctx`` for AES-128 ``mode``.  GCM declares its IV
        length before the key and IV go in."""
        _ok(self.init(ctx, self.ciphers[mode](), None, None, None,
                      int(encrypt)),
            "EVP_CipherInit_ex")
        if mode == "gcm":
            _ok(self.ctrl(ctx, _GCM_SET_IVLEN, len(iv), None),
                "EVP_CTRL_GCM_SET_IVLEN")
        _ok(self.init(ctx, None, None, key, iv or None, int(encrypt)),
            "EVP_CipherInit_ex")

    def _update(self, ctx: int, target: Optional[int], source: int,
                size: int) -> int:
        """Feed ``size`` bytes at ``source`` to ``EVP_CipherUpdate``
        in chunks of at most :data:`_CHUNK` bytes, writing from
        ``target`` on (``None`` for GCM AAD); returns the bytes
        written."""
        written = ctypes.c_int(0)
        total = 0
        for offset in range(0, size, _CHUNK):
            chunk = min(_CHUNK, size - offset)
            _ok(self.update(ctx,
                            None if target is None else target + total,
                            ctypes.byref(written), source + offset,
                            chunk),
                "EVP_CipherUpdate")
            total += written.value
        return total

    def _run(self, ctx: int, data: Buffer,
             aad: bytes = b"") -> Optional[bytes]:
        """AAD, then ``data``, then finalise.  ``None`` when the final
        step refuses — a GCM tag that does not verify — with the
        result already zeroed.

        The result is the call's one payload-sized allocation: a
        ``bytes`` created uninitialised, which ``EVP_CipherUpdate``
        fills straight from ``data``, read in place through the buffer
        protocol (``data`` must be ``bytes`` or a contiguous view of
        them: see :func:`~repro.perf.backends.as_buffer`).  An empty
        result is the interpreter's shared ``b""``, so libcrypto
        finalises into a scratch block instead.
        """
        if aad:
            self._update(ctx, None, _address(aad), len(aad))
        view = _PyBuffer()
        _get_buffer(data, view, _PYBUF_SIMPLE)
        try:
            size = view.len
            if size:
                out = _new_bytes(None, size)
                target = _bytes_at(out)
            else:
                out, scratch = b"", ctypes.create_string_buffer(_BLOCK)
                target = ctypes.addressof(scratch)
            written = self._update(ctx, target, view.buf, size)
            tail = ctypes.c_int(0)
            verified = self.final(ctx, target + written,
                                  ctypes.byref(tail)) == 1
        finally:
            _release_buffer(view)
        if not verified:
            ctypes.memset(target, 0, size)
            return None
        if written + tail.value != size:
            ctypes.memset(target, 0, size)
            raise RuntimeError(
                f"EVP wrote {written + tail.value} of {size} bytes")
        return out

    def _produce(self, ctx: int, data: Buffer,
                 aad: bytes = b"") -> bytes:
        out = self._run(ctx, data, aad)
        if out is None:
            raise RuntimeError("EVP_CipherFinal_ex failed")
        return out

    def ecb(self, key: bytes, data: bytes) -> bytes:
        """Raw AES-128-ECB over ``data`` (padding disabled)."""
        ctx = self._new_context()
        try:
            self._key(ctx, "ecb", key)
            _ok(self.set_padding(ctx, 0), "EVP_CIPHER_CTX_set_padding")
            return self._produce(ctx, data)
        finally:
            self.free(ctx)

    def ctr(self, key: bytes, counter: bytes, data: Buffer) -> bytes:
        """AES-128-CTR from ``counter``, incremented as 128 bits."""
        ctx = self._new_context()
        try:
            self._key(ctx, "ctr", key, counter)
            return self._produce(ctx, data)
        finally:
            self.free(ctx)

    def gcm_seal(self, key: bytes, iv: bytes, aad: bytes,
                 plaintext: Buffer) -> Tuple[bytes, bytes]:
        """AES-128-GCM encrypt: (ciphertext, 16-byte tag)."""
        ctx = self._new_context()
        try:
            self._key(ctx, "gcm", key, iv)
            ciphertext = self._produce(ctx, plaintext, aad)
            tag = _new_bytes(None, TAG_BYTES)
            _ok(self.ctrl(ctx, _GCM_GET_TAG, TAG_BYTES, _bytes_at(tag)),
                "EVP_CTRL_GCM_GET_TAG")
            return ciphertext, tag
        finally:
            self.free(ctx)

    def gcm_open(self, key: bytes, iv: bytes, aad: bytes,
                 ciphertext: Buffer, tag: bytes) -> Optional[bytes]:
        """AES-128-GCM verify and decrypt; ``None`` on a bad tag."""
        ctx = self._new_context()
        try:
            self._key(ctx, "gcm", key, iv, encrypt=False)
            _ok(self.ctrl(ctx, _GCM_SET_TAG, TAG_BYTES, tag),
                "EVP_CTRL_GCM_SET_TAG")
            return self._run(ctx, ciphertext, aad)
        finally:
            self.free(ctx)


def _self_test(lib: _Lib) -> bool:
    """The known answers every primitive must reproduce before use."""
    c1 = FIPS197_APPENDIX_C1
    if lib.ecb(c1.key, c1.plaintext) != c1.ciphertext:
        return False
    if lib.ctr(SP800_38A_ECB128_KEY, SP800_38A_CTR128_COUNTER0,
               SP800_38A_ECB128_PLAINTEXT) != SP800_38A_CTR128_CIPHERTEXT:
        return False
    # Cases 4 and 6: a 12-byte IV, and a 60-byte IV that goes through
    # GHASH; both with AAD.
    for case in (GCM_VECTORS[3], GCM_VECTORS[5]):
        sealed = lib.gcm_seal(case.key, case.iv, case.aad,
                              case.plaintext)
        flipped = bytes([case.tag[0] ^ 1]) + case.tag[1:]
        if (sealed != (case.ciphertext, case.tag)
                or lib.gcm_open(case.key, case.iv, case.aad,
                                case.ciphertext, case.tag)
                != case.plaintext
                or lib.gcm_open(case.key, case.iv, case.aad,
                                case.ciphertext, flipped) is not None):
            return False
    return True


_LIB: Optional[_Lib] = None
_PROBED = False
_PROBE_LOCK = threading.Lock()


def _probe() -> Optional[_Lib]:
    global _LIB, _PROBED
    if _PROBED:
        return _LIB
    with _PROBE_LOCK:
        if _PROBED:
            return _LIB
        for name in _CANDIDATES:
            if not name:
                continue
            try:
                lib = _Lib(ctypes.CDLL(name))
            except (OSError, AttributeError):
                continue
            try:
                passed = _self_test(lib)
            except RuntimeError:
                continue
            if passed:
                _LIB = lib
                break
        _PROBED = True
    return _LIB


def have_evp() -> bool:
    """Whether a libcrypto passing every known-answer test was found."""
    return _probe() is not None


def openssl_version() -> Optional[str]:
    """The loaded library's version banner, or None when absent."""
    lib = _probe()
    return lib.version if lib is not None else None


def _checked_lib(key: bytes) -> _Lib:
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    lib = _probe()
    if lib is None:
        raise RuntimeError(
            "OpenSSL EVP is unavailable in this environment")
    return lib


class EvpBackend(Backend):
    """AES-128 ECB, CTR and GCM through OpenSSL EVP."""

    name = "evp"
    vectorized = True
    max_gcm_iv_bytes = GCM_MAX_IV_BYTES

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        key, data = bytes(key), bytes(data)
        lib = _checked_lib(key)
        if len(data) % _BLOCK:
            raise ValueError(
                f"data length {len(data)} is not a multiple of "
                f"{_BLOCK}")
        if not data:
            return b""
        return lib.ecb(key, data)

    def ctr(self, key: bytes, counter: bytes, data: Buffer) -> bytes:
        key, counter, data = bytes(key), bytes(counter), as_buffer(data)
        lib = _checked_lib(key)
        if len(counter) != _BLOCK:
            raise ValueError(f"counter block must be {_BLOCK} bytes")
        if not data:
            return b""
        return lib.ctr(key, counter, data)

    def gcm_seal(self, key: bytes, iv: bytes, aad: bytes,
                 plaintext: Buffer) -> Tuple[bytes, bytes]:
        key, iv = bytes(key), bytes(iv)
        lib = _checked_lib(key)
        _check_iv(iv)
        return lib.gcm_seal(key, iv, bytes(aad), as_buffer(plaintext))

    def gcm_open(self, key: bytes, iv: bytes, aad: bytes,
                 ciphertext: Buffer, tag: bytes) -> Optional[bytes]:
        key, iv, tag = bytes(key), bytes(iv), bytes(tag)
        lib = _checked_lib(key)
        _check_iv(iv)
        if len(tag) != TAG_BYTES:
            # Never handed to libcrypto, which would check a shorter
            # tag as a truncated one.
            return None
        return lib.gcm_open(key, iv, bytes(aad), as_buffer(ciphertext),
                            tag)


def _check_iv(iv: bytes) -> None:
    if not 0 < len(iv) <= GCM_MAX_IV_BYTES:
        raise ValueError(
            f"native GCM takes a 1 to {GCM_MAX_IV_BYTES}-byte IV")


__all__ = ["EvpBackend", "have_evp", "openssl_version"]
