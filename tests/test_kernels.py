"""Equivalence layer for the cipher kernels (the tentpole's safety net).

The kernels in :mod:`repro.crypto.kernels` must be *bit-for-bit* equal to
the reference ciphers — the bench metrics are committed byte-identical and
every engine now routes through the fast path.  These tests pin that on
the published known answers (FIPS 197, SP 800-67), on 1000 random
blocks per key size and on every batch width around the numpy threshold,
check the in-kernel CBC chain, and cover the registry/dispatch plumbing.
Planted defects (a flipped pair-table entry, a flipped CBC chaining byte)
show the sweeps can fail.
"""

import functools

import pytest

from repro.crypto import AES, DES, DRBG, TripleDES
from repro.crypto import kernels as kernels_mod
from repro.crypto.kernels import (
    AESKernel,
    DESKernel,
    ReferenceKernel,
    TripleDESKernel,
    aes_kernel,
    ctr_pad,
    decrypt_blocks,
    des_kernel,
    encrypt_blocks,
    kernel_for,
    tdes_kernel,
)

# -- known answers (same vectors as test_known_answer.py) -------------------

AES_VECTORS = [
    # FIPS 197 Appendix B (AES-128), C.1, C.2, C.3.
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"),
    ("000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f"
     "101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "8ea2b7ca516745bfeafc49904b496089"),
]

DES_VECTORS = [
    ("133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"),
    ("0123456789abcdef", "4e6f772069732074", "3fa40e8a984d4815"),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key,plaintext,ciphertext", AES_VECTORS)
    def test_aes_fips_197(self, key, plaintext, ciphertext):
        kernel = AESKernel(bytes.fromhex(key))
        assert kernel.encrypt_block(bytes.fromhex(plaintext)).hex() \
            == ciphertext
        assert kernel.decrypt_block(bytes.fromhex(ciphertext)).hex() \
            == plaintext

    @pytest.mark.parametrize("key,plaintext,ciphertext", DES_VECTORS)
    def test_des_nbs(self, key, plaintext, ciphertext):
        kernel = DESKernel(bytes.fromhex(key))
        assert kernel.encrypt_block(bytes.fromhex(plaintext)).hex() \
            == ciphertext
        assert kernel.decrypt_block(bytes.fromhex(ciphertext)).hex() \
            == plaintext

    def test_3des_three_key_known_answer(self):
        # Karn's classic EDE3 vector (SP 800-67 keying option 1).
        key = bytes.fromhex(
            "0123456789abcdef23456789abcdef01456789abcdef0123"
        )
        plaintext = b"The qufck brown fox jump"
        expected = "a826fd8ce53b855fcce21c8112256fe668d5c05dd9b6b900"
        kernel = TripleDESKernel(key)
        assert kernel.encrypt_blocks(plaintext).hex() == expected
        assert kernel.decrypt_blocks(bytes.fromhex(expected)) == plaintext

    def test_3des_single_key_degenerates_to_des(self):
        # SP 800-67 keying option 3: K1=K2=K3 collapses EDE to one DES.
        key = bytes.fromhex("0123456789abcdef")
        block = bytes.fromhex("4e6f772069732074")
        assert TripleDESKernel(key).encrypt_block(block) \
            == DESKernel(key).encrypt_block(block)


# -- random-block equivalence vs the reference implementations --------------

RANDOM_BLOCKS = 1000

EQUIVALENCE_CASES = [
    ("aes-128", 16, AES, AESKernel),
    ("aes-192", 24, AES, AESKernel),
    ("aes-256", 32, AES, AESKernel),
    ("des-8", 8, DES, DESKernel),
    ("3des-8", 8, TripleDES, TripleDESKernel),
    ("3des-16", 16, TripleDES, TripleDESKernel),
    ("3des-24", 24, TripleDES, TripleDESKernel),
]


def _widths(kernel_cls):
    """Batch widths on both sides of the numpy threshold N: the narrow
    per-line shapes stay on the scalar rung even when numpy is active."""
    n = (kernels_mod.NUMPY_MIN_BLOCKS_AES if kernel_cls is AESKernel
         else kernels_mod.NUMPY_MIN_BLOCKS_DES)
    return {"1": 1, "4": 4, "N-1": n - 1, "N": n, "N+1": n + 1, "200": 200}


WIDTH_CASES = [
    pytest.param(*case, width, id=f"{case[0]}-{label}")
    for case in EQUIVALENCE_CASES
    for label, width in _widths(case[3]).items()
]


@functools.lru_cache(maxsize=None)
def _reference_blocks(name, key_len, ref_cls, width):
    """(key, data, reference ciphertext) for one case and batch width."""
    rng = DRBG(f"kernels-{name}-width-{width}".encode())
    key = rng.random_bytes(key_len)
    ref = ref_cls(key)
    size = ref.block_size
    data = rng.random_bytes(size * width)
    expected = b"".join(
        ref.encrypt_block(data[i: i + size]) for i in range(0, len(data), size)
    )
    return key, data, expected


def _width_mismatches(name, key_len, ref_cls, kernel_cls, width):
    """The directions in which ``kernel_cls`` differs from the reference."""
    key, data, expected = _reference_blocks(name, key_len, ref_cls, width)
    kernel = kernel_cls(key)
    out = []
    if kernel.encrypt_blocks(data) != expected:
        out.append("encrypt")
    if kernel.decrypt_blocks(expected) != data:
        out.append("decrypt")
    return out


def _width_sweep_failures():
    """(id, width) of every width-sweep case that mismatches."""
    return [(case.id, case.values[-1]) for case in WIDTH_CASES
            if _width_mismatches(*case.values)]


class TestRandomEquivalence:
    @pytest.mark.parametrize(
        "name,key_len,ref_cls,kernel_cls", EQUIVALENCE_CASES,
        ids=[case[0] for case in EQUIVALENCE_CASES],
    )
    def test_matches_reference(self, name, key_len, ref_cls, kernel_cls):
        rng = DRBG(f"kernels-{name}".encode())
        key = rng.random_bytes(key_len)
        ref = ref_cls(key)
        kernel = kernel_cls(key)
        size = ref.block_size
        data = rng.random_bytes(size * RANDOM_BLOCKS)
        expected = b"".join(
            ref.encrypt_block(data[i: i + size])
            for i in range(0, len(data), size)
        )
        assert kernel.encrypt_blocks(data) == expected
        assert kernel.decrypt_blocks(expected) == data

    @pytest.mark.parametrize(
        "name,key_len,ref_cls,kernel_cls,width", WIDTH_CASES)
    def test_matches_reference_at_width(self, name, key_len, ref_cls,
                                        kernel_cls, width):
        assert _width_mismatches(name, key_len, ref_cls, kernel_cls,
                                 width) == []

    def test_batch_equals_per_block(self):
        rng = DRBG(b"kernels-batch")
        kernel = AESKernel(rng.random_bytes(16))
        data = rng.random_bytes(16 * 32)
        assert kernel.encrypt_blocks(data) == b"".join(
            kernel.encrypt_block(data[i: i + 16])
            for i in range(0, len(data), 16)
        )

    def test_from_cipher_matches_fresh_kernel(self):
        rng = DRBG(b"kernels-from-cipher")
        for ref_cls, kernel_cls, key_len in (
            (AES, AESKernel, 16), (DES, DESKernel, 8),
            (TripleDES, TripleDESKernel, 24),
        ):
            key = rng.random_bytes(key_len)
            ref = ref_cls(key)
            block = rng.random_bytes(ref.block_size)
            assert kernel_cls.from_cipher(ref).encrypt_block(block) \
                == kernel_cls(key).encrypt_block(block)

    def test_rejects_ragged_lengths(self):
        kernel = AESKernel(bytes(16))
        with pytest.raises(ValueError):
            kernel.encrypt_blocks(b"\x00" * 17)
        with pytest.raises(ValueError):
            kernel.encrypt_block(b"\x00" * 8)
        with pytest.raises(ValueError):
            DESKernel(bytes(8)).encrypt_blocks(b"\x00" * 12)
        with pytest.raises(ValueError):
            TripleDESKernel(bytes(7))


# -- registry / dispatch ----------------------------------------------------

class XorCipher:
    """An exotic cipher with no table kernel: dispatch falls back to it."""

    block_size = 4

    def encrypt_block(self, block):
        return bytes(b ^ 0x42 for b in block)

    def decrypt_block(self, block):
        return bytes(b ^ 0x42 for b in block)


class TestRegistryAndDispatch:
    def test_registry_memoizes_by_key(self):
        key = bytes(range(16))
        assert aes_kernel(key) is aes_kernel(bytes(key))
        assert des_kernel(bytes(8)) is des_kernel(bytes(8))
        assert tdes_kernel(bytes(24)) is tdes_kernel(bytes(24))
        assert aes_kernel(key) is not aes_kernel(bytes(range(1, 17)))

    def test_kernel_for_reference_ciphers(self):
        import repro.backend as repro_backend
        if repro_backend.ACTIVE == "python":
            # The python rung's contract is the opposite: reference
            # ciphers are never promoted to table kernels.
            assert kernel_for(AES(bytes(16))) is None
            return
        rng = DRBG(b"kernels-dispatch")
        aes = AES(rng.random_bytes(16))
        kernel = kernel_for(aes)
        assert isinstance(kernel, AESKernel)
        # Memoized on the instance: same object on the second lookup.
        assert kernel_for(aes) is kernel
        # TripleDES must not dispatch to the single-DES kernel.
        assert isinstance(kernel_for(TripleDES(bytes(24))), TripleDESKernel)
        assert isinstance(kernel_for(DES(bytes(8))), DESKernel)

    def test_kernel_for_passthrough_and_unknown(self):
        kernel = aes_kernel(bytes(16))
        assert kernel_for(kernel) is kernel
        assert kernel_for(object()) is None

    def test_dispatch_falls_back_for_exotic_ciphers(self):
        cipher = XorCipher()
        data = bytes(range(12))
        assert encrypt_blocks(cipher, data) \
            == bytes(b ^ 0x42 for b in data)
        assert decrypt_blocks(cipher, encrypt_blocks(cipher, data)) == data
        with pytest.raises(ValueError):
            encrypt_blocks(cipher, bytes(6))

    def test_ctr_pad_matches_per_block_construction(self):
        rng = DRBG(b"kernels-ctr-pad")
        kernel = aes_kernel(rng.random_bytes(16))

        def counter_block(block_addr):
            return b"tst!" + (block_addr // 16).to_bytes(12, "big")

        # Unaligned start and length: the pad must slice correctly.
        addr, nbytes = 40, 100
        start = addr - addr % 16
        end = -(-(addr + nbytes) // 16) * 16
        expected = b"".join(
            kernel.encrypt_block(counter_block(a))
            for a in range(start, end, 16)
        )[addr - start: addr - start + nbytes]
        assert ctr_pad(kernel, addr, nbytes, counter_block) == expected
        assert len(ctr_pad(kernel, 0, 1, counter_block)) == 1
        assert ctr_pad(kernel, 0, 0, counter_block) == b""


# -- planted defects: the width sweep must be able to fail ------------------

def _first_pair_index(monkeypatch):
    """The first-pair-table entry the width-1 DES case reads first."""
    seen = []

    class Recorder(list):
        def __getitem__(self, index):
            seen.append(index)
            return super().__getitem__(index)

    tables = kernels_mod._SP2
    monkeypatch.setattr(kernels_mod, "_SP2", (Recorder(tables[0]),
                                              *tables[1:]))
    key, data, _ = _reference_blocks("des-8", 8, DES, 1)
    DESKernel(key).encrypt_blocks(data)
    monkeypatch.setattr(kernels_mod, "_SP2", tables)
    return seen[0]


class TestPlantedDefects:
    def test_flipped_scalar_pair_entry_fails_the_sweep(self, monkeypatch):
        index = _first_pair_index(monkeypatch)
        tables = list(kernels_mod._SP2)
        tables[0] = list(tables[0])
        tables[0][index] ^= 1
        monkeypatch.setattr(kernels_mod, "_SP2", tuple(tables))
        failures = _width_sweep_failures()
        assert ("des-8-1", 1) in failures
        if kernels_mod.NUMPY_BACKED:
            # Only the scalar rung reads the scalar tables.
            assert all(width < kernels_mod.NUMPY_MIN_BLOCKS_DES
                       for _, width in failures)

    def test_flipped_numpy_pair_entry_fails_the_sweep(self, monkeypatch):
        if not kernels_mod.NUMPY_BACKED:
            pytest.skip("numpy rung inactive")
        index = _first_pair_index(monkeypatch)
        tables = list(kernels_mod._NPT["sp"])
        tables[0] = tables[0].copy()
        tables[0][index] ^= 1
        monkeypatch.setitem(kernels_mod._NPT, "sp", tuple(tables))
        failures = _width_sweep_failures()
        assert failures
        assert all(width >= kernels_mod.NUMPY_MIN_BLOCKS_DES
                   for _, width in failures)


# -- the in-kernel CBC chain --------------------------------------------------

#: name -> (key length, reference cipher, cipher handed to cbc_encrypt).
CBC_CASES = {
    "aes-128": (16, AES, AESKernel),
    "aes-256": (32, AES, AESKernel),
    "des": (8, DES, DESKernel),
    "3des-16": (16, TripleDES, TripleDESKernel),
    "3des-24": (24, TripleDES, TripleDESKernel),
    "reference": (16, AES, lambda key: ReferenceKernel(AES(key))),
    "exotic": (0, lambda key: XorCipher(), lambda key: XorCipher()),
}


def _check_cbc_case(name):
    key_len, make_ref, make_cipher = CBC_CASES[name]
    rng = DRBG(f"kernels-cbc-{name}".encode())
    key = rng.random_bytes(key_len)
    ref = make_ref(key)
    size = ref.block_size
    iv = rng.random_bytes(size)
    data = rng.random_bytes(7 * size)
    prev, expected = iv, b""
    for i in range(0, len(data), size):
        prev = ref.encrypt_block(
            bytes(a ^ b for a, b in zip(data[i: i + size], prev)))
        expected += prev
    cipher = make_cipher(key)
    assert kernels_mod.cbc_encrypt(cipher, iv, data) == expected
    assert kernels_mod.cbc_encrypt(cipher, iv, b"") == b""
    with pytest.raises(ValueError):
        kernels_mod.cbc_encrypt(cipher, iv, data[:-1])
    with pytest.raises(ValueError):
        kernels_mod.cbc_encrypt(cipher, iv[:-1], data)


class TestCbcChain:
    @pytest.mark.parametrize("name", list(CBC_CASES))
    def test_matches_per_block_reference_chain(self, name):
        _check_cbc_case(name)

    def test_flipped_chaining_byte_is_caught(self, monkeypatch):
        """Mutant: every block after the first is chained from the
        previous ciphertext with its first byte flipped."""
        real = kernels_mod.cbc_encrypt

        def mutant(cipher, iv, data):
            size = cipher.block_size
            prev, out = iv, []
            for i in range(0, len(data), size):
                block = real(cipher, prev, data[i: i + size])
                out.append(block)
                prev = bytes([block[0] ^ 1]) + block[1:]
            return b"".join(out)

        monkeypatch.setattr(kernels_mod, "cbc_encrypt", mutant)
        for name in CBC_CASES:
            with pytest.raises(AssertionError):
                _check_cbc_case(name)


# -- backend ladder: graceful degradation -----------------------------------

import warnings as _warnings

import repro.backend as repro_backend
from repro.crypto import kernels as kernels_mod


class TestBackendFallback:
    """A failing numpy probe demotes to the kernel rung — never a crash."""

    def _metrics(self):
        from repro.api import run_stream
        return run_stream(engine="xom", workload="dma-burst",
                          accesses=4000, chunk_size=512, functional=True)

    def test_failed_probe_demotes_with_identical_metrics(self):
        if repro_backend.ACTIVE != "numpy":
            pytest.skip("numpy rung inactive; degradation already happened")
        before = self._metrics()
        saved = (repro_backend.ACTIVE, repro_backend.NUMPY,
                 kernels_mod.NUMPY_BACKED, kernels_mod._np)
        try:
            with pytest.warns(RuntimeWarning, match="numpy backend disabled"):
                kernels_mod._init_numpy_backend(probe=lambda: False)
            assert repro_backend.ACTIVE == "kernel"
            assert repro_backend.NUMPY is None
            assert kernels_mod.NUMPY_BACKED is False
            after = self._metrics()
        finally:
            (repro_backend.ACTIVE, repro_backend.NUMPY,
             kernels_mod.NUMPY_BACKED, kernels_mod._np) = saved
        assert after == before

    def test_probe_exception_is_contained(self):
        if repro_backend.ACTIVE != "numpy":
            pytest.skip("numpy rung inactive")
        saved = (repro_backend.ACTIVE, repro_backend.NUMPY,
                 kernels_mod.NUMPY_BACKED, kernels_mod._np)

        def exploding_probe():
            raise RuntimeError("synthetic probe failure")

        try:
            with pytest.warns(RuntimeWarning):
                ok = kernels_mod._init_numpy_backend(probe=exploding_probe)
            assert ok is False
            assert repro_backend.ACTIVE == "kernel"
        finally:
            (repro_backend.ACTIVE, repro_backend.NUMPY,
             kernels_mod.NUMPY_BACKED, kernels_mod._np) = saved

    def test_reinit_restores_numpy_rung(self):
        if repro_backend.ACTIVE != "numpy":
            pytest.skip("numpy rung inactive")
        assert kernels_mod._init_numpy_backend() is True
        assert kernels_mod.NUMPY_BACKED is True
