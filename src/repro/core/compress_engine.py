"""Compression + encryption engine (survey Figure 8, Section 4).

"A possible solution to improve performance would be to add a compression
step to a ciphering solution.  The compression has to be done before
ciphering, if not, compression will have a very poor ratio due to the strong
stochastic properties of encrypted data. ... Compression can improve the
performance of the encryption unit by decreasing the data size to cipher and
to decipher.  In addition, compression can raise hopes for a gain of memory
capacity, and also performance benefit due to lowered bus usage."

The engine compresses the (read-only) code image at cache-line granularity
with the CodePack-style compressor, then enciphers the variable-length
compressed lines with the seekable CTR keystream.  A line address table
(LAT) maps each line to its packed offset/length.  On a fill, only the
compressed bytes cross the bus (fewer beats), then decryption (pad XOR) and
decompression (modeled decoder latency) run on-chip.

Data regions are not compressed (their content changes; repacking online is
not practical) — data lines pass through the inner stream cipher unchanged.
The survey's "+/- 10%" shows up in E13's memory-latency sweep: with slow
memory the saved beats win; with fast memory the decoder latency loses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..compression.codepack import CodePack, CompressedImage
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit, XOM_AES_PIPE
from .engine import BusEncryptionEngine, MemoryPort
from .stream_engine import StreamCipherEngine

__all__ = ["CompressedEncryptionEngine"]


class CompressedEncryptionEngine(BusEncryptionEngine):
    """CodePack-then-encrypt for code, plain stream encryption for data."""

    name = "compress+encrypt"
    min_write_bytes = 1
    #: Confidentiality only: tampered compressed code decodes to garbage
    #: (often unparseable) but nothing *rejects* it.
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        line_size: int = 32,
        decoder_fixed_latency: int = 4,
        decoder_bytes_per_cycle: int = 4,
        unit: PipelinedUnit = XOM_AES_PIPE,
        functional: bool = True,
    ):
        super().__init__(functional=functional)
        self.line_size = line_size
        self.decoder_fixed_latency = decoder_fixed_latency
        self.decoder_bytes_per_cycle = decoder_bytes_per_cycle
        self.unit = unit
        self._inner = StreamCipherEngine(
            key, line_size=line_size, unit=unit, functional=functional
        )
        self._codec = CodePack(block_size=line_size)
        #: line address -> (packed offset, compressed length)
        self._lat: Dict[int, Tuple[int, int]] = {}
        self._image: Optional[CompressedImage] = None
        self._code_base = 0
        self._code_size = 0
        self._packed_base = 0
        self.compressed_fills = 0
        self.uncompressed_fills = 0

    # -- image installation ---------------------------------------------------

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        """Compress, encrypt and pack the code image into memory.

        The packed stream is stored starting at ``base_addr``; the LAT keeps
        the line -> (offset, length) mapping on-chip.
        """
        if line_size != self.line_size:
            raise ValueError(
                f"engine line size {self.line_size} != system line size {line_size}"
            )
        if len(plaintext) % line_size != 0:
            plaintext = plaintext + b"\x00" * (line_size - len(plaintext) % line_size)
        self._code_base = base_addr
        self._code_size = len(plaintext)
        self._packed_base = base_addr
        self._image = self._codec.compress_image(plaintext)

        offset = 0
        for i, compressed in enumerate(self._image.blocks):
            line_addr = base_addr + i * line_size
            packed_addr = self._packed_base + offset
            ciphertext = (
                xor_bytes(compressed,
                          self._inner._pad(packed_addr, len(compressed)))
                if self.functional else compressed
            )
            memory.load_image(packed_addr, ciphertext)
            self._lat[line_addr] = (packed_addr, len(compressed))
            offset += len(compressed)

    @property
    def density_gain(self) -> float:
        """Memory-density increase from compression (survey: ≈35%)."""
        if self._image is None:
            return 0.0
        return self._image.density_gain

    @property
    def compression_ratio(self) -> float:
        if self._image is None:
            return 1.0
        return self._image.ratio

    # -- generic interface (delegated to the inner stream engine) -------------

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        return self._inner.encrypt_line(addr, plaintext)

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        return self._inner.decrypt_line(addr, ciphertext)

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        return self._inner.read_extra_cycles(addr, nbytes, mem_cycles)

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        return self._inner.write_extra_cycles(addr, nbytes)

    def _decoder_cycles(self, out_bytes: int) -> int:
        return self.decoder_fixed_latency + -(-out_bytes // self.decoder_bytes_per_cycle)

    # -- fills ------------------------------------------------------------------

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        out: List[Tuple[bytes, int]] = []
        for addr in addrs:
            entry = self._lat.get(addr)
            if entry is None:
                # Data region: plain stream-encrypted line.
                self.uncompressed_fills += 1
                out.append(self._inner.fill_line(port, addr, line_size))
                continue

            self.compressed_fills += 1
            packed_addr, length = entry
            ciphertext, mem_cycles = port.read(packed_addr, length)
            # Pad XOR overlaps the (shorter) fetch like the inner engine's.
            pad_cycles = self.unit.time_for(-(-length // 16))
            crypto_extra = max(0, pad_cycles - mem_cycles) + 1
            decode_extra = self._decoder_cycles(line_size)
            self.stats.lines_decrypted += 1
            self.stats.extra_read_cycles += crypto_extra + decode_extra
            self._emit("decipher", packed_addr, length, "compressed")
            if crypto_extra + decode_extra:
                self._emit("stall", packed_addr, crypto_extra + decode_extra,
                           "read")

            if self.functional:
                compressed = xor_bytes(
                    ciphertext, self._inner._pad(packed_addr, length)
                )
                plaintext = self._codec.decompress_block(
                    compressed, line_size,
                    self._image.dict_high, self._image.dict_low,
                )
            else:
                plaintext = bytes(line_size)
            out.append((plaintext, mem_cycles + crypto_extra + decode_extra))
        return out

    def write_line(self, port: MemoryPort, addr: int, plaintext: bytes) -> int:
        if addr in self._lat:
            raise ValueError(
                f"write to compressed (read-only) code line {addr:#x}"
            )
        return self._inner.write_line(port, addr, plaintext)

    def write_partial(self, port: MemoryPort, addr: int, data: bytes,
                      line_size: int) -> int:
        if addr - addr % line_size in self._lat:
            raise ValueError(
                f"write to compressed (read-only) code line {addr:#x}"
            )
        return self._inner.write_partial(port, addr, data, line_size)

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("aes_pipelined")
        est.add_block("codepack_decoder")
        est.add_sram("lat", 6 * max(1, len(self._lat)))
        est.add_sram(
            "dictionaries",
            2 * (len(self._image.dict_high) + len(self._image.dict_low))
            if self._image else 1024,
        )
        est.add_block("control_overhead")
        return est
