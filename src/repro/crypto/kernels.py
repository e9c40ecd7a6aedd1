"""Table-driven fast paths for the from-scratch block ciphers.

The survey's hardware engines owe their throughput to precomputation: XOM's
14-cycle AES pipeline and AEGIS's round-pipelined AES are possible because
every round collapses into table lookups and XORs, and the DES parts bake
the bit permutations into wiring.  The same tricks have exact software
analogues, and this module applies them to the reference implementations in
:mod:`repro.crypto.aes` and :mod:`repro.crypto.des`:

* :class:`AESKernel` — the classic T-table formulation: SubBytes, ShiftRows
  and MixColumns fuse into four 256-entry word tables, so one round is 16
  lookups and 20 XORs instead of per-byte GF(2^8) arithmetic.  The tables
  are *derived* from the algebraically constructed ``SBOX``/``gf_mul`` of
  the reference module, so the existing S-box tests cover them.
* :class:`DESKernel` / :class:`TripleDESKernel` — bit-packed rounds: IP
  and FP become per-byte scatter tables, each half is kept rotated left by
  5 and widened to 36 bits so the E expansion is a mask, and the eight
  S-boxes fuse with the P permutation, in pairs, into four tables indexed
  by two 6-bit chunks at once — 4 lookups per round.  3DES is the same
  kernel with three passes per block, skipping the interior FP∘IP pairs,
  which cancel algebraically; the numpy rung gathers from the same
  tables with the same schedules.
* a **key-schedule registry** (:func:`aes_kernel`, :func:`des_kernel`,
  :func:`tdes_kernel`) memoizing kernels by raw key bytes, so campaign
  scripts that rebuild engines dozens of times reuse one expanded schedule;
* **batched APIs** — :meth:`encrypt_blocks`/:meth:`decrypt_blocks` on every
  kernel, the :func:`encrypt_blocks`/:func:`decrypt_blocks` dispatch
  helpers that fall back to per-block loops for exotic ciphers, and
  :func:`ctr_pad` producing a whole line's keystream in one call — the
  miss-path shape the engines in :mod:`repro.core` use;
* **in-kernel CBC** — :meth:`cbc_encrypt` on every kernel and the
  :func:`cbc_encrypt` dispatch helper run the serial chain inside one
  call, the previous ciphertext block kept as an int.

Every kernel is bit-for-bit equivalent to its reference cipher; the
equivalence layer in ``tests/test_kernels.py`` proves it on the FIPS-197 /
SP 800-67 known answers and on random blocks, and
``python -m repro.crypto.bench_kernels`` measures the speedup.

>>> from repro.crypto.aes import AES
>>> key = bytes(range(16))
>>> block = bytes(range(16, 32))
>>> AESKernel(key).encrypt_block(block) == AES(key).encrypt_block(block)
True
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from .. import backend as _backend
from .aes import AES, INV_SBOX, SBOX, gf_mul
from .des import (
    DES,
    TripleDES,
    _FP,
    _IP,
    _P,
    _SBOXES,
    _key_schedule,
    _permute,
)

__all__ = [
    "AESKernel", "DESKernel", "TripleDESKernel",
    "aes_kernel", "des_kernel", "tdes_kernel",
    "kernel_for", "encrypt_blocks", "decrypt_blocks", "cbc_encrypt", "ctr_pad",
    "NUMPY_BACKED",
]


# ---------------------------------------------------------------------------
# AES T-tables, derived from the reference S-box and GF(2^8) arithmetic.
# T0..T3 fuse SubBytes + MixColumns for the byte in state rows 0..3; the
# inverse tables fuse InvSubBytes + InvMixColumns.
# ---------------------------------------------------------------------------

def _build_aes_tables() -> Tuple[List[List[int]], List[List[int]], List[int]]:
    enc = [[0] * 256 for _ in range(4)]
    dec = [[0] * 256 for _ in range(4)]
    imix = [0] * 256  # InvMixColumns of a single byte, for the decrypt schedule
    for x in range(256):
        s = SBOX[x]
        s2 = gf_mul(s, 2)
        s3 = s2 ^ s
        # MixColumns contribution of the byte landing in row 0..3.
        enc[0][x] = (s2 << 24) | (s << 16) | (s << 8) | s3
        enc[1][x] = (s3 << 24) | (s2 << 16) | (s << 8) | s
        enc[2][x] = (s << 24) | (s3 << 16) | (s2 << 8) | s
        enc[3][x] = (s << 24) | (s << 16) | (s3 << 8) | s2
        i = INV_SBOX[x]
        e, n = gf_mul(i, 14), gf_mul(i, 9)
        t, l = gf_mul(i, 13), gf_mul(i, 11)
        dec[0][x] = (e << 24) | (n << 16) | (t << 8) | l
        dec[1][x] = (l << 24) | (e << 16) | (n << 8) | t
        dec[2][x] = (t << 24) | (l << 16) | (e << 8) | n
        dec[3][x] = (n << 24) | (t << 16) | (l << 8) | e
        imix[x] = (gf_mul(x, 14) << 24) | (gf_mul(x, 9) << 16) \
            | (gf_mul(x, 13) << 8) | gf_mul(x, 11)
    return enc, dec, imix


(_TE, _TD, _IMIX) = _build_aes_tables()


def _pack_words(round_key: List[int]) -> List[int]:
    """One 16-byte round key -> four big-endian column words."""
    return [
        (round_key[4 * c] << 24) | (round_key[4 * c + 1] << 16)
        | (round_key[4 * c + 2] << 8) | round_key[4 * c + 3]
        for c in range(4)
    ]


def _inv_mix_word(word: int) -> int:
    return (
        _IMIX[(word >> 24) & 0xFF]
        ^ _rotr32(_IMIX[(word >> 16) & 0xFF], 8)
        ^ _rotr32(_IMIX[(word >> 8) & 0xFF], 16)
        ^ _rotr32(_IMIX[word & 0xFF], 24)
    )


def _rotr32(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def _iv_int(iv: bytes, size: int) -> int:
    """A CBC IV as the int a kernel's chain starts from."""
    if len(iv) != size:
        raise ValueError(f"IV must be {size} bytes, got {len(iv)}")
    return int.from_bytes(iv, "big")


class AESKernel:
    """T-table AES, byte-identical to :class:`repro.crypto.aes.AES`.

    On the numpy backend, batches of :data:`NUMPY_MIN_BLOCKS_AES` blocks
    or more run every round as vectorized table gathers over the whole
    batch at once; smaller batches stay on the scalar loop (a numpy round
    costs the same regardless of width, so gathers only pay for
    themselves on wide calls).
    """

    block_size = 16

    def __init__(self, key: bytes):
        self._init_from_schedule(AES(key))

    @classmethod
    def from_cipher(cls, cipher: AES) -> "AESKernel":
        """Build a kernel from an existing reference cipher's schedule."""
        kernel = cls.__new__(cls)
        kernel._init_from_schedule(cipher)
        return kernel

    def __deepcopy__(self, memo):
        # The expanded schedule is immutable after construction; engines
        # cloned for warm-rig reuse can share the instance.
        return self

    def _init_from_schedule(self, ref: AES) -> None:
        self.key_size = ref.key_size
        self._rounds = ref._rounds
        # Encrypt keys: flat list of words, 4 per round.
        self._ek: List[int] = []
        for rk in ref._round_keys:
            self._ek.extend(_pack_words(rk))
        # Equivalent-inverse-cipher keys: reversed order, InvMixColumns
        # applied to the interior rounds.
        self._dk: List[int] = list(_pack_words(ref._round_keys[self._rounds]))
        for rnd in range(self._rounds - 1, 0, -1):
            self._dk.extend(
                _inv_mix_word(w) for w in _pack_words(ref._round_keys[rnd])
            )
        self._dk.extend(_pack_words(ref._round_keys[0]))
        # Lazily-built numpy copies of the schedules (numpy backend only).
        self._ek_np = None
        self._dk_np = None

    # -- batched core ----------------------------------------------------

    def encrypt_blocks(self, data: bytes) -> bytes:
        """ECB-encrypt a multiple of 16 bytes in one batched pass."""
        if NUMPY_BACKED and len(data) >= NUMPY_MIN_BLOCKS_AES * 16 \
                and len(data) % 16 == 0:
            return _np_aes_crypt(self, data, encrypt=True)
        return self._encrypt_blocks_scalar(data)

    def decrypt_blocks(self, data: bytes) -> bytes:
        """ECB-decrypt a multiple of 16 bytes in one batched pass."""
        if NUMPY_BACKED and len(data) >= NUMPY_MIN_BLOCKS_AES * 16 \
                and len(data) % 16 == 0:
            return _np_aes_crypt(self, data, encrypt=False)
        return self._decrypt_blocks_scalar(data)

    def cbc_encrypt(self, iv: bytes, data: bytes) -> bytes:
        """CBC-encrypt ``data``, the chain carried as an int."""
        return self._encrypt_blocks_scalar(data, _iv_int(iv, 16))

    def _encrypt_blocks_scalar(self, data: bytes,
                               chain: Optional[int] = None) -> bytes:
        if len(data) % 16:
            raise ValueError(
                f"data length {len(data)} is not a multiple of block size 16"
            )
        t0, t1, t2, t3 = _TE
        sbox = SBOX
        ek = self._ek
        rounds = self._rounds
        out = bytearray(len(data))
        for base in range(0, len(data), 16):
            v = int.from_bytes(data[base: base + 16], "big")
            if chain is not None:
                v ^= chain
            w0 = (v >> 96) ^ ek[0]
            w1 = ((v >> 64) & 0xFFFFFFFF) ^ ek[1]
            w2 = ((v >> 32) & 0xFFFFFFFF) ^ ek[2]
            w3 = (v & 0xFFFFFFFF) ^ ek[3]
            k = 4
            for _ in range(rounds - 1):
                n0 = (t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF]
                      ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ ek[k])
                n1 = (t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF]
                      ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ ek[k + 1])
                n2 = (t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF]
                      ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ ek[k + 2])
                n3 = (t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF]
                      ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ ek[k + 3])
                w0, w1, w2, w3 = n0, n1, n2, n3
                k += 4
            # Final round: SubBytes + ShiftRows only.
            o0 = ((sbox[w0 >> 24] << 24) | (sbox[(w1 >> 16) & 0xFF] << 16)
                  | (sbox[(w2 >> 8) & 0xFF] << 8) | sbox[w3 & 0xFF]) ^ ek[k]
            o1 = ((sbox[w1 >> 24] << 24) | (sbox[(w2 >> 16) & 0xFF] << 16)
                  | (sbox[(w3 >> 8) & 0xFF] << 8) | sbox[w0 & 0xFF]) ^ ek[k + 1]
            o2 = ((sbox[w2 >> 24] << 24) | (sbox[(w3 >> 16) & 0xFF] << 16)
                  | (sbox[(w0 >> 8) & 0xFF] << 8) | sbox[w1 & 0xFF]) ^ ek[k + 2]
            o3 = ((sbox[w3 >> 24] << 24) | (sbox[(w0 >> 16) & 0xFF] << 16)
                  | (sbox[(w1 >> 8) & 0xFF] << 8) | sbox[w2 & 0xFF]) ^ ek[k + 3]
            v = (o0 << 96) | (o1 << 64) | (o2 << 32) | o3
            if chain is not None:
                chain = v
            out[base: base + 16] = v.to_bytes(16, "big")
        return bytes(out)

    def _decrypt_blocks_scalar(self, data: bytes) -> bytes:
        if len(data) % 16:
            raise ValueError(
                f"data length {len(data)} is not a multiple of block size 16"
            )
        t0, t1, t2, t3 = _TD
        inv = INV_SBOX
        dk = self._dk
        rounds = self._rounds
        out = bytearray(len(data))
        for base in range(0, len(data), 16):
            w0 = int.from_bytes(data[base: base + 4], "big") ^ dk[0]
            w1 = int.from_bytes(data[base + 4: base + 8], "big") ^ dk[1]
            w2 = int.from_bytes(data[base + 8: base + 12], "big") ^ dk[2]
            w3 = int.from_bytes(data[base + 12: base + 16], "big") ^ dk[3]
            k = 4
            for _ in range(rounds - 1):
                n0 = (t0[w0 >> 24] ^ t1[(w3 >> 16) & 0xFF]
                      ^ t2[(w2 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ dk[k])
                n1 = (t0[w1 >> 24] ^ t1[(w0 >> 16) & 0xFF]
                      ^ t2[(w3 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ dk[k + 1])
                n2 = (t0[w2 >> 24] ^ t1[(w1 >> 16) & 0xFF]
                      ^ t2[(w0 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ dk[k + 2])
                n3 = (t0[w3 >> 24] ^ t1[(w2 >> 16) & 0xFF]
                      ^ t2[(w1 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ dk[k + 3])
                w0, w1, w2, w3 = n0, n1, n2, n3
                k += 4
            o0 = ((inv[w0 >> 24] << 24) | (inv[(w3 >> 16) & 0xFF] << 16)
                  | (inv[(w2 >> 8) & 0xFF] << 8) | inv[w1 & 0xFF]) ^ dk[k]
            o1 = ((inv[w1 >> 24] << 24) | (inv[(w0 >> 16) & 0xFF] << 16)
                  | (inv[(w3 >> 8) & 0xFF] << 8) | inv[w2 & 0xFF]) ^ dk[k + 1]
            o2 = ((inv[w2 >> 24] << 24) | (inv[(w1 >> 16) & 0xFF] << 16)
                  | (inv[(w0 >> 8) & 0xFF] << 8) | inv[w3 & 0xFF]) ^ dk[k + 2]
            o3 = ((inv[w3 >> 24] << 24) | (inv[(w2 >> 16) & 0xFF] << 16)
                  | (inv[(w1 >> 8) & 0xFF] << 8) | inv[w0 & 0xFF]) ^ dk[k + 3]
            out[base: base + 16] = (
                (o0 << 96) | (o1 << 64) | (o2 << 32) | o3
            ).to_bytes(16, "big")
        return bytes(out)

    # -- BlockCipher protocol --------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        return self.encrypt_blocks(block)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        return self.decrypt_blocks(block)


# ---------------------------------------------------------------------------
# DES: per-byte scatter tables for IP/FP and four paired S-box+P tables, all
# derived from the FIPS tables (and `_permute` itself) in repro.crypto.des.
#
# Between IP and FP each 32-bit half is kept rotated left by 5 and widened
# to 36 bits, bits 32-35 mirroring bits 0-3.  In that layout the E
# expansion is free: E chunks 0, 6, 4, 2 sit at bit offsets 0, 8, 16, 24
# and chunks 7, 5, 3, 1 at offsets 4, 12, 20, 28, so XORing the half with
# a round key split into two words of that shape and masking with 0x3F3F
# yields the table index of two S-boxes at once.  A round is 4 lookups.
# ---------------------------------------------------------------------------

def _scatter_tables(table, in_width: int) -> List[List[int]]:
    """Per-input-byte lookup tables computing a FIPS bit permutation."""
    out_width = len(table)
    tabs = [[0] * 256 for _ in range(in_width // 8)]
    for out_pos, in_pos in enumerate(table):
        byte_idx = (in_pos - 1) // 8
        bit = 7 - ((in_pos - 1) % 8)          # within the byte, from LSB
        target = 1 << (out_width - 1 - out_pos)
        tab = tabs[byte_idx]
        for value in range(256):
            if (value >> bit) & 1:
                tab[value] |= target
    return tabs


def _widen(half: int) -> int:
    """A 32-bit half in the round layout: rotated left 5, bits 0-3 mirrored
    into bits 32-35."""
    half = ((half << 5) | (half >> 27)) & 0xFFFFFFFF
    return half | (half & 0xF) << 32


#: (low, high) S-box of each paired table, in the order the rounds index
#: them: ``u & 0x3F3F``, ``(u >> 16) & 0x3F3F``, ``(t >> 4) & 0x3F3F``,
#: ``(t >> 20) & 0x3F3F``.
_SP_PAIRS = ((0, 6), (4, 2), (7, 5), (3, 1))


def _build_des_tables() -> Tuple[List[List[int]], List[List[int]],
                                 Tuple[List[int], ...]]:
    # Position p (0-based, MSB first) of a rotated half holds bit
    # (p + 5) % 32 of the plain half; ``unrot`` maps the other way.
    rot = [h + (p + 5) % 32 for h in (0, 32) for p in range(32)]
    unrot = [h + (p - 5) % 32 for h in (0, 32) for p in range(32)]
    ip = _scatter_tables([_IP[i] for i in rot], 64)
    fp = _scatter_tables([unrot[i - 1] + 1 for i in _FP], 64)
    # sp[i][chunk]: S-box i applied to a 6-bit chunk, its 4-bit output
    # placed in nibble i, then run through P — the whole second half of
    # the round function, widened to the round layout.
    sp = []
    for i in range(8):
        tab = []
        for chunk in range(64):
            row = ((chunk & 0x20) >> 4) | (chunk & 1)
            col = (chunk >> 1) & 0xF
            tab.append(_widen(_permute(
                _SBOXES[i][row][col] << (28 - 4 * i), 32, _P)))
        sp.append(tab)
    pairs = []
    for lo, hi in _SP_PAIRS:
        tab = [0] * 0x3F40   # sparse: bits 6-7 of either index byte unused
        # Two 4-bit S-box outputs give at most 256 distinct entries; share
        # one int object per value.
        values = {}
        for b, high in enumerate(sp[hi]):
            for a, low in enumerate(sp[lo]):
                value = low ^ high
                tab[(b << 8) | a] = values.setdefault(value, value)
        pairs.append(tab)
    return ip, fp, tuple(pairs)


_IP_TAB, _FP_TAB, _SP2 = _build_des_tables()


def _des_pass(round_keys) -> Tuple[Tuple[int, int, int, int], ...]:
    """One 16-round pass: each 48-bit round key split into the two round
    layout words, grouped as two rounds per entry."""
    words = []
    for key in round_keys:
        c = [(key >> (42 - 6 * i)) & 0x3F for i in range(8)]
        words.append(c[0] | c[6] << 8 | c[4] << 16 | c[2] << 24)
        words.append(c[7] << 4 | c[5] << 12 | c[3] << 20 | c[1] << 28)
    return tuple(tuple(words[i: i + 4]) for i in range(0, len(words), 4))


def _feistel_passes(left, right, passes, sp):
    """Every pass's 16 rounds on two 32-bit halves, each an int (one
    block) or an int64 array (a batch): widened on entry, still widened
    on return, the halves swapped after each pass."""
    sp0, sp1, sp2, sp3 = sp
    left |= (left & 0xF) << 32
    right |= (right & 0xF) << 32
    for keys in passes:
        for ka, kb, kc, kd in keys:
            u = right ^ ka
            t = right ^ kb
            left ^= (sp0[u & 0x3F3F] ^ sp1[(u >> 16) & 0x3F3F]
                     ^ sp2[(t >> 4) & 0x3F3F] ^ sp3[(t >> 20) & 0x3F3F])
            u = left ^ kc
            t = left ^ kd
            right ^= (sp0[u & 0x3F3F] ^ sp1[(u >> 16) & 0x3F3F]
                      ^ sp2[(t >> 4) & 0x3F3F] ^ sp3[(t >> 20) & 0x3F3F])
        left, right = right, left
    return left, right


def _des_scalar(data: bytes, passes, chain: Optional[int] = None) -> bytes:
    """One IP, 16 rounds per pass, one FP, block by block.

    ``passes`` holds one :func:`_des_pass` schedule for DES and three for
    3DES: the interior FP∘IP pairs of EDE cancel, leaving only the half
    swap that ends each pass.  With ``chain`` (the IV as an int) each
    plaintext block is XORed with the previous output first — CBC
    encryption with the chain kept as an int.
    """
    if len(data) % 8:
        raise ValueError(
            f"data length {len(data)} is not a multiple of block size 8"
        )
    ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = _IP_TAB
    fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = _FP_TAB
    sp = _SP2
    out = bytearray(len(data))
    for base in range(0, len(data), 8):
        v = int.from_bytes(data[base: base + 8], "big")
        if chain is not None:
            v ^= chain
        v = (ip0[v >> 56] | ip1[(v >> 48) & 0xFF] | ip2[(v >> 40) & 0xFF]
             | ip3[(v >> 32) & 0xFF] | ip4[(v >> 24) & 0xFF]
             | ip5[(v >> 16) & 0xFF] | ip6[(v >> 8) & 0xFF] | ip7[v & 0xFF])
        left, right = _feistel_passes(v >> 32, v & 0xFFFFFFFF, passes, sp)
        v = (fp0[(left >> 24) & 0xFF] | fp1[(left >> 16) & 0xFF]
             | fp2[(left >> 8) & 0xFF] | fp3[left & 0xFF]
             | fp4[(right >> 24) & 0xFF] | fp5[(right >> 16) & 0xFF]
             | fp6[(right >> 8) & 0xFF] | fp7[right & 0xFF])
        if chain is not None:
            chain = v
        out[base: base + 8] = v.to_bytes(8, "big")
    return bytes(out)


# ---------------------------------------------------------------------------
# numpy array kernels: the top rung of the backend ladder.  The same
# T-table / bit-packed formulations as above, with every per-block loop
# replaced by a gather over the whole batch — the software analogue of the
# survey engines' wide data-parallel datapaths.  Selected at import by
# :func:`_init_numpy_backend` behind an equivalence probe (the
# ``HASHLIB_BACKED`` pattern); any mismatch demotes the whole process to
# the scalar kernels with a one-line warning.
# ---------------------------------------------------------------------------

#: True only when ``repro.backend`` chose the numpy rung *and* the array
#: kernels reproduced the scalar kernels bit-for-bit at import time.
NUMPY_BACKED = False

_np = None          # the numpy module once the probe has passed
_NPT = {}           # numpy mirrors of the lookup tables, built by the probe

#: Minimum batch width (blocks) for the array paths.  A numpy round costs
#: roughly the same at any width, so narrow calls — the per-line fill /
#: writeback shape — stay on the scalar kernels and wide calls (installs,
#: region decrypts, pad batches) take the gathers.
NUMPY_MIN_BLOCKS_AES = 32
#: The DES crossover, measured as ``_des_scalar`` vs ``_np_des_crypt``
#: encrypt time per call (best of 15x5, ms) on a shared 2-core x86_64
#: host, Python 3.11.7, numpy 2.4.6:
#:
#:   blocks      8      16     24     32     48     64     128
#:   DES      0.094  0.185  0.290  0.408  0.634  0.796  1.541  scalar
#:            0.321  0.324  0.342  0.372  0.374  0.351  0.388  numpy
#:   3DES     0.265  0.476  0.701  1.012  1.393  1.999  3.903  scalar
#:            0.864  0.781  0.791  0.862  0.804  0.921  0.946  numpy
#:
#: Both cross over between 24 and 32 blocks.  In four runs covering 24-32
#: blocks numpy won every run at 28 and 32 blocks and three of four at 24
#: (the fourth went 15% the other way), so the threshold sits at 24.
NUMPY_MIN_BLOCKS_DES = 24


def _build_numpy_tables(np) -> dict:
    u32, u64 = np.uint32, np.uint64
    return {
        "te": tuple(np.array(t, dtype=u32) for t in _TE),
        "td": tuple(np.array(t, dtype=u32) for t in _TD),
        "sbox": np.array(SBOX, dtype=u32),
        "inv_sbox": np.array(INV_SBOX, dtype=u32),
        "ip": tuple(np.array(t, dtype=u64) for t in _IP_TAB),
        "fp": tuple(np.array(t, dtype=u64) for t in _FP_TAB),
        # int64: the gathers index with the halves directly, no cast.
        "sp": tuple(np.array(t, dtype=np.int64) for t in _SP2),
    }


def _np_aes_crypt(kernel: "AESKernel", data: bytes, encrypt: bool) -> bytes:
    """All AES rounds as gathers over the whole batch at once."""
    np = _np
    if encrypt:
        t0, t1, t2, t3 = _NPT["te"]
        last = _NPT["sbox"]
        ks = kernel._ek_np
        if ks is None:
            ks = kernel._ek_np = np.array(
                kernel._ek, dtype=np.uint32).reshape(-1, 4)
    else:
        t0, t1, t2, t3 = _NPT["td"]
        last = _NPT["inv_sbox"]
        ks = kernel._dk_np
        if ks is None:
            ks = kernel._dk_np = np.array(
                kernel._dk, dtype=np.uint32).reshape(-1, 4)
    w = np.frombuffer(data, dtype=">u4").astype(np.uint32).reshape(-1, 4)
    k = ks[0]
    w0 = w[:, 0] ^ k[0]
    w1 = w[:, 1] ^ k[1]
    w2 = w[:, 2] ^ k[2]
    w3 = w[:, 3] ^ k[3]
    # Encrypt rows rotate left through the columns, decrypt rows rotate
    # right — mirror the scalar loops' index patterns exactly.
    a, b, c = (1, 2, 3) if encrypt else (3, 2, 1)
    cols = (w0, w1, w2, w3)
    for rnd in range(1, kernel._rounds):
        k = ks[rnd]
        w0, w1, w2, w3 = (
            t0[cols[0] >> 24] ^ t1[(cols[a] >> 16) & 0xFF]
            ^ t2[(cols[2] >> 8) & 0xFF] ^ t3[cols[c] & 0xFF] ^ k[0],
            t0[cols[1] >> 24] ^ t1[(cols[(1 + a) & 3] >> 16) & 0xFF]
            ^ t2[(cols[3] >> 8) & 0xFF] ^ t3[cols[(1 + c) & 3] & 0xFF] ^ k[1],
            t0[cols[2] >> 24] ^ t1[(cols[(2 + a) & 3] >> 16) & 0xFF]
            ^ t2[(cols[0] >> 8) & 0xFF] ^ t3[cols[(2 + c) & 3] & 0xFF] ^ k[2],
            t0[cols[3] >> 24] ^ t1[(cols[(3 + a) & 3] >> 16) & 0xFF]
            ^ t2[(cols[1] >> 8) & 0xFF] ^ t3[cols[(3 + c) & 3] & 0xFF] ^ k[3],
        )
        cols = (w0, w1, w2, w3)
    k = ks[kernel._rounds]
    out = np.empty(w.shape, dtype=np.uint32)
    for i in range(4):
        out[:, i] = (
            (last[cols[i] >> 24] << 24)
            | (last[(cols[(i + a) & 3] >> 16) & 0xFF] << 16)
            | (last[(cols[(i + 2) & 3] >> 8) & 0xFF] << 8)
            | last[cols[(i + c) & 3] & 0xFF]
        ) ^ k[i]
    return out.astype(">u4").tobytes()


def _np_perm64(v, tabs):
    r = tabs[0][(v >> 56) & 0xFF] | tabs[1][(v >> 48) & 0xFF]
    r |= tabs[2][(v >> 40) & 0xFF] | tabs[3][(v >> 32) & 0xFF]
    r |= tabs[4][(v >> 24) & 0xFF] | tabs[5][(v >> 16) & 0xFF]
    r |= tabs[6][(v >> 8) & 0xFF] | tabs[7][v & 0xFF]
    return r


def _np_des_crypt(data: bytes, passes) -> bytes:
    """:func:`_des_scalar` (without the chain) over the whole batch: the
    same round function, schedules and tables, 4 gathers per round."""
    np = _np
    v = _np_perm64(np.frombuffer(data, dtype=">u8").astype(np.uint64),
                   _NPT["ip"])
    left, right = _feistel_passes((v >> 32).astype(np.int64),
                                  (v & 0xFFFFFFFF).astype(np.int64),
                                  passes, _NPT["sp"])
    v = ((left.astype(np.uint64) & 0xFFFFFFFF) << 32) \
        | (right.astype(np.uint64) & 0xFFFFFFFF)
    return _np_perm64(v, _NPT["fp"]).astype(">u8").tobytes()


def _numpy_ok() -> bool:
    """Equivalence probe: array kernels must reproduce the scalar kernels
    bit-for-bit on a batch covering every byte value, for AES-128/256,
    DES and 3DES, both directions."""
    global _NPT, _np
    np = _backend.NUMPY
    if np is None:
        return False
    _np = np
    _NPT = _build_numpy_tables(np)
    data = bytes((i * 37 + 11) & 0xFF for i in range(1024))
    for key_len in (16, 32):
        kernel = AESKernel(bytes(range(key_len)))
        ct = kernel._encrypt_blocks_scalar(data)
        if _np_aes_crypt(kernel, data, encrypt=True) != ct:
            return False
        if _np_aes_crypt(kernel, ct, encrypt=False) != data:
            return False
    for des in (DESKernel(bytes(range(8))),
                TripleDESKernel(bytes(range(24)))):
        ct = _des_scalar(data, des._enc)
        if _np_des_crypt(data, des._enc) != ct:
            return False
        if _np_des_crypt(ct, des._dec) != data:
            return False
    return True


def _init_numpy_backend(probe: Callable[[], bool] = None) -> bool:
    """Settle the numpy rung at import; tests inject a failing ``probe``
    to exercise the graceful-degradation path."""
    global NUMPY_BACKED, _np
    NUMPY_BACKED = False
    _np = None
    if _backend.ACTIVE != "numpy":
        return False
    try:
        ok = bool((probe or _numpy_ok)())
    except Exception:
        ok = False
    if ok:
        _np = _backend.NUMPY
        NUMPY_BACKED = True
    else:
        _np = None
        _backend.demote("array-kernel equivalence probe failed")
    return NUMPY_BACKED


def _des_crypt(data: bytes, passes) -> bytes:
    """ECB through ``passes``: gathers for wide batches, else scalar."""
    if NUMPY_BACKED and len(data) >= NUMPY_MIN_BLOCKS_DES * 8 \
            and len(data) % 8 == 0:
        return _np_des_crypt(data, passes)
    return _des_scalar(data, passes)


class DESKernel:
    """Bit-packed DES, byte-identical to :class:`repro.crypto.des.DES`."""

    block_size = 8

    def __init__(self, key: bytes):
        if len(key) != 8:
            raise ValueError(f"DES key must be 8 bytes, got {len(key)}")
        keys = _key_schedule(int.from_bytes(key, "big"))
        self._init_passes((keys,), (keys[::-1],))

    def __deepcopy__(self, memo):
        # Immutable after construction (see AESKernel.__deepcopy__).
        return self

    @classmethod
    def from_cipher(cls, cipher: DES) -> "DESKernel":
        kernel = cls.__new__(cls)
        keys = cipher._round_keys
        kernel._init_passes((keys,), (keys[::-1],))
        return kernel

    def _init_passes(self, enc, dec) -> None:
        self._enc = tuple(_des_pass(keys) for keys in enc)
        self._dec = tuple(_des_pass(keys) for keys in dec)

    def encrypt_blocks(self, data: bytes) -> bytes:
        return _des_crypt(data, self._enc)

    def decrypt_blocks(self, data: bytes) -> bytes:
        return _des_crypt(data, self._dec)

    def cbc_encrypt(self, iv: bytes, data: bytes) -> bytes:
        """CBC-encrypt ``data``, the chain carried as an int."""
        return _des_scalar(data, self._enc, _iv_int(iv, 8))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 8:
            raise ValueError(f"DES block must be 8 bytes, got {len(block)}")
        return self.encrypt_blocks(block)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 8:
            raise ValueError(f"DES block must be 8 bytes, got {len(block)}")
        return self.decrypt_blocks(block)


class TripleDESKernel(DESKernel):
    """Bit-packed 3DES-EDE, byte-identical to
    :class:`repro.crypto.des.TripleDES`.

    The same kernel as :class:`DESKernel` with three passes per block: the
    interior FP∘IP permutation pairs of the EDE composition cancel (FP is
    IP's inverse), so each block pays one IP, 48 paired-table rounds and
    one FP.
    """

    def __init__(self, key: bytes):
        if len(key) == 8:
            k1 = k2 = k3 = key
        elif len(key) == 16:
            k1, k2, k3 = key[:8], key[8:], key[:8]
        elif len(key) == 24:
            k1, k2, k3 = key[:8], key[8:16], key[16:]
        else:
            raise ValueError(
                f"3DES key must be 8, 16 or 24 bytes, got {len(key)}"
            )
        self._init_ede(*(_key_schedule(int.from_bytes(k, "big"))
                         for k in (k1, k2, k3)))

    @classmethod
    def from_cipher(cls, cipher: TripleDES) -> "TripleDESKernel":
        kernel = cls.__new__(cls)
        kernel._init_ede(cipher._d1._round_keys, cipher._d2._round_keys,
                         cipher._d3._round_keys)
        return kernel

    def _init_ede(self, ks1, ks2, ks3) -> None:
        # Encrypt: E(K1) -> D(K2) -> E(K3); decrypt reverses the chain.
        self._init_passes((ks1, ks2[::-1], ks3),
                          (ks3[::-1], ks2, ks1[::-1]))


class ReferenceKernel:
    """Per-block adapter giving an algebraic reference cipher the batched
    kernel API — the ``python`` rung of the backend ladder.  Under
    ``REPRO_BACKEND=python`` the registry hands these out instead of the
    table kernels, so every block goes through the reference GF(2^8) /
    Feistel arithmetic while the engines keep calling one interface."""

    __slots__ = ("_cipher", "block_size")

    def __init__(self, cipher):
        self._cipher = cipher
        self.block_size = cipher.block_size

    def __deepcopy__(self, memo):
        # The reference schedules are immutable after construction too.
        return self

    def _check(self, data: bytes) -> None:
        if len(data) % self.block_size:
            raise ValueError(
                f"data length {len(data)} is not a multiple of block size "
                f"{self.block_size}"
            )

    def encrypt_blocks(self, data: bytes) -> bytes:
        self._check(data)
        enc = self._cipher.encrypt_block
        size = self.block_size
        return b"".join(
            enc(data[i: i + size]) for i in range(0, len(data), size)
        )

    def decrypt_blocks(self, data: bytes) -> bytes:
        self._check(data)
        dec = self._cipher.decrypt_block
        size = self.block_size
        return b"".join(
            dec(data[i: i + size]) for i in range(0, len(data), size)
        )

    def cbc_encrypt(self, iv: bytes, data: bytes) -> bytes:
        return _cbc_chain(self._cipher, iv, data)

    def encrypt_block(self, block: bytes) -> bytes:
        return self._cipher.encrypt_block(block)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._cipher.decrypt_block(block)


# ---------------------------------------------------------------------------
# Key-schedule registry: kernels memoized by raw key bytes.  Engines are
# rebuilt wholesale by fault campaigns and sweeps; the registry makes the
# (tables + schedule) cost a once-per-key event for the whole process.
# Under the ``python`` backend the same registry serves reference-cipher
# adapters, so the rung switch is invisible to every caller.
# ---------------------------------------------------------------------------

_REGISTRY: "OrderedDict[Tuple[str, bytes], object]" = OrderedDict()
_REGISTRY_MAX = 128


def _registered(kind: str, key: bytes, factory: Callable):
    entry = (kind, bytes(key))
    kernel = _REGISTRY.get(entry)
    if kernel is None:
        kernel = factory(key)
        _REGISTRY[entry] = kernel
        while len(_REGISTRY) > _REGISTRY_MAX:
            _REGISTRY.popitem(last=False)
    else:
        _REGISTRY.move_to_end(entry)
    return kernel


def aes_kernel(key: bytes) -> "AESKernel":
    """Registry-cached AES kernel (or reference adapter) for ``key``."""
    if _backend.ACTIVE == "python":
        return _registered("aes-ref", key, lambda k: ReferenceKernel(AES(k)))
    return _registered("aes", key, AESKernel)


def des_kernel(key: bytes) -> "DESKernel":
    """Registry-cached DES kernel (or reference adapter) for ``key``."""
    if _backend.ACTIVE == "python":
        return _registered("des-ref", key, lambda k: ReferenceKernel(DES(k)))
    return _registered("des", key, DESKernel)


def tdes_kernel(key: bytes) -> "TripleDESKernel":
    """Registry-cached 3DES kernel (or reference adapter) for ``key``."""
    if _backend.ACTIVE == "python":
        return _registered(
            "3des-ref", key, lambda k: ReferenceKernel(TripleDES(k))
        )
    return _registered("3des", key, TripleDESKernel)


# ---------------------------------------------------------------------------
# Dispatch: route any BlockCipher through its kernel when one exists.
# ---------------------------------------------------------------------------

_KERNEL_TYPES = (AESKernel, DESKernel, TripleDESKernel, ReferenceKernel)
_KERNEL_ATTR = "_repro_kernel"


def kernel_for(cipher):
    """Fast kernel equivalent of ``cipher``, or ``None`` if it has none.

    Reference :class:`AES`/:class:`DES`/:class:`TripleDES` instances get a
    kernel built from their already-expanded schedule, memoized on the
    instance; kernels pass through unchanged; anything else returns
    ``None`` (callers fall back to the cipher's own per-block methods).
    Under ``REPRO_BACKEND=python`` reference ciphers are *not* promoted —
    the whole point of the rung is that their own arithmetic runs.
    """
    if isinstance(cipher, _KERNEL_TYPES):
        return cipher
    kernel = getattr(cipher, _KERNEL_ATTR, None)
    if kernel is not None:
        return kernel
    if _backend.ACTIVE == "python":
        return None
    if isinstance(cipher, AES):
        kernel = AESKernel.from_cipher(cipher)
    elif isinstance(cipher, TripleDES):
        kernel = TripleDESKernel.from_cipher(cipher)
    elif isinstance(cipher, DES):
        kernel = DESKernel.from_cipher(cipher)
    else:
        return None
    setattr(cipher, _KERNEL_ATTR, kernel)
    return kernel


def encrypt_blocks(cipher, data: bytes) -> bytes:
    """ECB-encrypt ``data`` through ``cipher``'s kernel, batched."""
    kernel = kernel_for(cipher)
    if kernel is not None:
        return kernel.encrypt_blocks(data)
    size = cipher.block_size
    if len(data) % size:
        raise ValueError(
            f"data length {len(data)} is not a multiple of block size {size}"
        )
    enc = cipher.encrypt_block
    return b"".join(enc(data[i: i + size]) for i in range(0, len(data), size))


def decrypt_blocks(cipher, data: bytes) -> bytes:
    """ECB-decrypt ``data`` through ``cipher``'s kernel, batched."""
    kernel = kernel_for(cipher)
    if kernel is not None:
        return kernel.decrypt_blocks(data)
    size = cipher.block_size
    if len(data) % size:
        raise ValueError(
            f"data length {len(data)} is not a multiple of block size {size}"
        )
    dec = cipher.decrypt_block
    return b"".join(dec(data[i: i + size]) for i in range(0, len(data), size))


def _cbc_chain(cipher, iv: bytes, data: bytes) -> bytes:
    """Per-block CBC encryption through ``cipher.encrypt_block``."""
    size = cipher.block_size
    prev = _iv_int(iv, size)
    if len(data) % size:
        raise ValueError(
            f"data length {len(data)} is not a multiple of block size {size}"
        )
    enc = cipher.encrypt_block
    out = []
    for i in range(0, len(data), size):
        block = enc((int.from_bytes(data[i: i + size], "big")
                     ^ prev).to_bytes(size, "big"))
        prev = int.from_bytes(block, "big")
        out.append(block)
    return b"".join(out)


def cbc_encrypt(cipher, iv: bytes, data: bytes) -> bytes:
    """CBC-encrypt ``data`` under ``iv`` through ``cipher``'s kernel.

    The chain is serial (C_i feeds C_{i+1}), so it runs inside the kernel
    with the previous ciphertext kept as an int; exotic ciphers fall back
    to a per-block chain.
    """
    kernel = kernel_for(cipher)
    if kernel is not None:
        return kernel.cbc_encrypt(iv, data)
    return _cbc_chain(cipher, iv, data)


def ctr_pad(cipher, addr: int, nbytes: int,
            counter_block: Callable[[int], bytes]) -> bytes:
    """Keystream covering ``[addr, addr + nbytes)`` in one batched pass.

    ``counter_block(block_addr)`` formats the counter block for the
    cipher-block-aligned address — each engine keeps its own layout (pad
    tag, version, line index...).  The blocks are enciphered through one
    :func:`encrypt_blocks` call instead of a per-block loop, which is the
    pad-ahead shape of the stream engines' miss path.
    """
    size = cipher.block_size
    start = addr - addr % size
    end = -(-(addr + nbytes) // size) * size
    blocks = b"".join(
        counter_block(block_addr) for block_addr in range(start, end, size)
    )
    pad = encrypt_blocks(cipher, blocks)
    offset = addr - start
    return pad[offset: offset + nbytes]


# Settle the backend ladder's top rung now that every kernel class the
# probe needs is defined.  On failure this demotes ``repro.backend`` to
# the kernel rung with a one-line warning — never a crash.
_init_numpy_backend()
