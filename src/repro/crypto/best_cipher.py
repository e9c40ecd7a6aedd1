"""Best-style block cipher: keyed substitutions and byte transpositions.

Robert Best's crypto-microprocessor patents ([7][8][9] in the survey,
Figure 3) predate DES hardware being affordable on-die; his cipher is built
from "basic cryptographic functions such as mono and poly-alphabetic
substitutions and byte transpositions".  This module reconstructs that
design point:

* a keyed byte-substitution table (mono-alphabetic layer);
* an address-dependent table selection (poly-alphabetic layer — the same
  plaintext byte maps differently at different addresses);
* a keyed transposition of the bytes within the block.

It is deliberately *weaker* than a modern cipher: rounds are shallow and
diffusion is limited to the permutation, so the statistical tests in
:mod:`repro.analysis.security` can exhibit the gap to AES (experiment E06)
— which is the survey's point when it calls NIST-approved algorithms the
known route to "strong security".
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from .hmac import prf

__all__ = ["BestCipher"]


def _keyed_permutation(material: bytes, n: int) -> List[int]:
    """Fisher-Yates shuffle of range(n) driven by key material."""
    perm = list(range(n))
    # Consume two bytes of material per swap for an unbiased-enough index.
    idx = 0
    for i in range(n - 1, 0, -1):
        r = int.from_bytes(material[idx: idx + 2], "big") % (i + 1)
        idx += 2
        perm[i], perm[r] = perm[r], perm[i]
    return perm


#: One alphabet set: a tuple of 256-entry substitution tables.
Alphabets = Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=64)
def _alphabets(key: bytes, num_alphabets: int) -> Tuple[Alphabets, Alphabets]:
    """The keyed substitution tables and their inverses for ``key``.

    The key schedule is the expensive part of construction (one 1 KiB PRF
    draw and shuffle per alphabet), so it runs once per key; the tables
    are tuples, so every cipher built from the key can share them.
    """
    sboxes = []
    inv_sboxes = []
    for a in range(num_alphabets):
        material = prf(key, b"best-sbox", bytes([a % 256]), out_len=1024)
        sbox = _keyed_permutation(material, 256)
        inv = [0] * 256
        for i, v in enumerate(sbox):
            inv[v] = i
        sboxes.append(tuple(sbox))
        inv_sboxes.append(tuple(inv))
    return tuple(sboxes), tuple(inv_sboxes)


class BestCipher:
    """Substitution/transposition block cipher over ``block_size`` bytes.

    ``num_alphabets`` substitution tables are derived from the key; the table
    used for byte ``i`` of the block at address ``addr`` is selected by
    ``(addr + i) % num_alphabets`` — the poly-alphabetic schedule of the
    patent.  A keyed byte transposition follows the substitution, and the
    pair is iterated ``rounds`` times.
    """

    def __init__(
        self,
        key: bytes,
        block_size: int = 8,
        num_alphabets: int = 16,
        rounds: int = 2,
    ):
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        if num_alphabets < 1:
            raise ValueError(f"num_alphabets must be >= 1, got {num_alphabets}")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.block_size = block_size
        self.num_alphabets = num_alphabets
        self.rounds = rounds

        self._sboxes, self._inv_sboxes = _alphabets(bytes(key),
                                                    num_alphabets)

        perm_material = prf(key, b"best-perm", out_len=4 * block_size)
        self._perm = _keyed_permutation(perm_material, block_size)
        self._inv_perm = [0] * block_size
        for i, v in enumerate(self._perm):
            self._inv_perm[v] = i

    def _alphabet(self, addr: int, offset: int, rnd: int) -> int:
        return (addr + offset + rnd * 7) % self.num_alphabets

    def encrypt(self, addr: int, block: bytes) -> bytes:
        """Encrypt ``block`` located at byte address ``addr``."""
        if len(block) != self.block_size:
            raise ValueError(
                f"block must be {self.block_size} bytes, got {len(block)}"
            )
        state = list(block)
        for rnd in range(self.rounds):
            state = [
                self._sboxes[self._alphabet(addr, i, rnd)][b]
                for i, b in enumerate(state)
            ]
            state = [state[self._perm[i]] for i in range(self.block_size)]
        return bytes(state)

    def decrypt(self, addr: int, block: bytes) -> bytes:
        """Invert :meth:`encrypt` for the block at ``addr``."""
        if len(block) != self.block_size:
            raise ValueError(
                f"block must be {self.block_size} bytes, got {len(block)}"
            )
        state = list(block)
        for rnd in range(self.rounds - 1, -1, -1):
            state = [state[self._inv_perm[i]] for i in range(self.block_size)]
            state = [
                self._inv_sboxes[self._alphabet(addr, i, rnd)][b]
                for i, b in enumerate(state)
            ]
        return bytes(state)

    # Mode-compatible interface with the address fixed at zero, used where a
    # generic BlockCipher is expected.

    def encrypt_block(self, block: bytes) -> bytes:
        return self.encrypt(0, block)

    def decrypt_block(self, block: bytes) -> bytes:
        return self.decrypt(0, block)
