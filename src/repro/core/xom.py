"""XOM-style pipelined-AES bus encryption engine ([13] in the survey).

The XOM project uses "a pipelined AES block cipher as cipher unit which
features a low latency of 14 cycles, while a throughput of one
encrypted/decrypted data per clock cycle is claimed".  Each 16-byte block is
enciphered independently in an address-tweaked ECB (XEX-style masking), so
any block can be fetched and deciphered with no chaining state — full random
access, at the cost of deterministic encryption per address (same plaintext
at the same address always yields the same ciphertext; AEGIS's IVs fix
that, see :mod:`repro.core.aegis`).

Experiment E10 uses this engine to make the survey's own caveat concrete:
"taking into account only the latency doesn't inform about the overall
system cost".
"""

from __future__ import annotations

from typing import List

from ..crypto.kernels import aes_kernel
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import XOM_AES_PIPE, PipelinedUnit
from .engine import BlockModeEngine

__all__ = ["XomAesEngine"]


class XomAesEngine(BlockModeEngine):
    """Address-tweaked AES engine with XOM's published pipeline figures."""

    name = "xom-aes"
    #: Confidentiality only in this model (published XOM adds MACs — that
    #: composition is the registry's "integrity-xom").
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        unit: PipelinedUnit = XOM_AES_PIPE,
        functional: bool = True,
        **kwargs,
    ):
        super().__init__(unit=unit, cipher_block=16, functional=functional,
                         **kwargs)
        self._aes = aes_kernel(key)
        # Tweak mask key: independent schedule derived from the main key.
        self._tweak_aes = aes_kernel(bytes(b ^ 0x5C for b in key))

    def _mask(self, addr: int) -> bytes:
        """XEX mask for the block at byte address ``addr``."""
        return self._tweak_aes.encrypt_block(addr.to_bytes(16, "big"))

    def _masks(self, addr: int, nbytes: int) -> bytes:
        """Concatenated XEX masks for every 16-byte block of the line."""
        material = b"".join(
            (addr + i).to_bytes(16, "big") for i in range(0, nbytes, 16)
        )
        return self._tweak_aes.encrypt_blocks(material)

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        masks = self._masks(addr, len(plaintext))
        return xor_bytes(
            self._aes.encrypt_blocks(xor_bytes(plaintext, masks)), masks
        )

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        masks = self._masks(addr, len(ciphertext))
        return xor_bytes(
            self._aes.decrypt_blocks(xor_bytes(ciphertext, masks)), masks
        )

    def _xex_lines(self, items, blocks, line_fn) -> List[bytes]:
        """XEX-transform ``(addr, data)`` lines through the AES batch
        ``blocks`` (encrypt or decrypt).

        XEX is ECB over independent blocks, so the whole batch costs two
        kernel calls (masks, then blocks).  Widths that are not whole
        AES blocks fall back to the per-line ``line_fn``.
        """
        if not items or any(len(data) % 16 for _, data in items):
            return [line_fn(addr, data) for addr, data in items]
        material = b"".join(
            (addr + i).to_bytes(16, "big")
            for addr, data in items for i in range(0, len(data), 16)
        )
        masks = self._tweak_aes.encrypt_blocks(material)
        joined = b"".join(data for _, data in items)
        transformed = xor_bytes(blocks(xor_bytes(joined, masks)), masks)
        out: List[bytes] = []
        pos = 0
        for _, data in items:
            out.append(transformed[pos: pos + len(data)])
            pos += len(data)
        return out

    def encrypt_lines(self, items):
        return self._xex_lines(items, self._aes.encrypt_blocks,
                               self.encrypt_line)

    def decrypt_lines(self, items):
        return self._xex_lines(items, self._aes.decrypt_blocks,
                               self.decrypt_line)

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("aes_pipelined")
        est.add_block("control_overhead")
        return est
