"""VLSI Technology's secure-DMA page engine (survey Figure 4, patent [10]).

"VLSI technology proposes an architecture where data transfers to and from
the external memory are done page-by-page.  All CPU external requests are
managed by a secure DMA unit and communications between external and
internal memory use an encryption / decryption core.  This system allows the
use of block cipher techniques (robustness).  As the DMA is controlled by
the operating system, this technique is viable provided that the OS is
trusted."

The engine owns an on-chip page buffer.  A miss to a *resident* page is an
internal SRAM access: no external traffic and near-zero latency.  A miss to
a non-resident page triggers a page fault: the LRU victim page is
re-enciphered and written out if dirty, and the whole requested page is
fetched and deciphered (3DES-CBC per page — chaining is harmless because
the transfer is bulk and sequential by construction).  E07 sweeps page size
and locality: small pages waste the amortization, large pages thrash under
poor locality — the patent's trade.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence, Tuple

from ..crypto.kernels import tdes_kernel
from ..crypto.modes import CBC
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit, TDES_PIPE
from .engine import BusEncryptionEngine, MemoryPort

__all__ = ["VlsiDmaEngine"]


class _Page:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytearray):
        self.data = data
        self.dirty = False


class VlsiDmaEngine(BusEncryptionEngine):
    """Page-granular secure DMA with an on-chip page buffer."""

    name = "vlsi-secure-dma"
    #: Confidentiality only: 3DES-CBC pages garble under tampering (CBC
    #: error propagation) but carry no authentication.
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        page_size: int = 1024,
        buffer_pages: int = 8,
        sram_latency: int = 2,
        unit: PipelinedUnit = TDES_PIPE,
        functional: bool = True,
    ):
        if page_size % 8 != 0 or page_size <= 0:
            raise ValueError(
                f"page_size must be a positive multiple of 8, got {page_size}"
            )
        if buffer_pages < 1:
            raise ValueError(f"buffer_pages must be >= 1, got {buffer_pages}")
        super().__init__(functional=functional)
        self._tdes = tdes_kernel(key)
        self.page_size = page_size
        self.buffer_pages = buffer_pages
        self.sram_latency = sram_latency
        self.unit = unit
        self.min_write_bytes = 1  # absorbed by the page buffer
        self._buffer: "OrderedDict[int, _Page]" = OrderedDict()
        self.page_faults = 0
        self.page_writebacks = 0

    # -- page crypto ---------------------------------------------------------

    def _page_iv(self, base: int) -> bytes:
        return self._tdes.encrypt_block(base.to_bytes(8, "big"))

    def _encrypt_page(self, base: int, plaintext: bytes) -> bytes:
        return CBC(self._tdes, self._page_iv(base)).encrypt(plaintext)

    def _decrypt_page(self, base: int, ciphertext: bytes) -> bytes:
        return CBC(self._tdes, self._page_iv(base)).decrypt(ciphertext)

    def _page_base(self, addr: int) -> int:
        return addr - addr % self.page_size

    # -- generic engine interface (used for install / verification) ----------

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        raise NotImplementedError("page-granular engine: use install_image")

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        raise NotImplementedError("page-granular engine: use read_plain")

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        raise NotImplementedError

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        raise NotImplementedError

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        if base_addr % self.page_size != 0:
            raise ValueError(
                f"image base {base_addr:#x} must align to the page size"
            )
        if len(plaintext) % self.page_size != 0:
            plaintext = plaintext + b"\x00" * (
                self.page_size - len(plaintext) % self.page_size
            )
        for offset in range(0, len(plaintext), self.page_size):
            base = base_addr + offset
            page = plaintext[offset: offset + self.page_size]
            memory.load_image(base, self._encrypt_page(base, page))

    def read_plain(self, memory, addr: int, nbytes: int) -> bytes:
        """Decrypt installed bytes straight from memory (verification)."""
        first = self._page_base(addr)
        last = self._page_base(addr + nbytes - 1)
        out = bytearray()
        for base in range(first, last + self.page_size, self.page_size):
            out += self._decrypt_page(base, memory.dump(base, self.page_size))
        offset = addr - first
        return bytes(out[offset: offset + nbytes])

    # -- page-fault machinery ----------------------------------------------

    def _evict_lru(self, port: MemoryPort) -> int:
        base, page = self._buffer.popitem(last=False)
        if not page.dirty:
            return 0
        self.page_writebacks += 1
        nblocks = self.page_size // 8
        # Serial CBC encryption of the page, then the bulk DMA write.
        enc_cycles = nblocks * self.unit.latency if self.unit.initiation_interval > 1 \
            else self.unit.time_for(nblocks)
        ciphertext = (
            self._encrypt_page(base, bytes(page.data))
            if self.functional else bytes(page.data)
        )
        self.stats.lines_encrypted += 1
        self.stats.blocks_processed += nblocks
        self.stats.extra_write_cycles += enc_cycles
        self._emit("encipher", base, self.page_size, "page")
        if enc_cycles:
            self._emit("stall", base, enc_cycles, "write")
        return enc_cycles + port.write(base, ciphertext)

    def _fault_in(self, port: MemoryPort, base: int) -> int:
        """Fetch and decipher a whole page; returns cycles."""
        self.page_faults += 1
        cycles = 0
        if len(self._buffer) >= self.buffer_pages:
            cycles += self._evict_lru(port)
        ciphertext, mem_cycles = port.read(base, self.page_size)
        nblocks = self.page_size // 8
        extra = self.unit.drain_after_arrivals(nblocks, 1)
        self.stats.lines_decrypted += 1
        self.stats.blocks_processed += nblocks
        self.stats.extra_read_cycles += extra
        self._emit("decipher", base, self.page_size, "page")
        if extra:
            self._emit("stall", base, extra, "read")
        cycles += mem_cycles + extra
        data = (
            bytearray(self._decrypt_page(base, ciphertext))
            if self.functional else bytearray(ciphertext)
        )
        self._buffer[base] = _Page(data)
        return cycles

    def _resident(self, port: MemoryPort, addr: int) -> Tuple[_Page, int, int]:
        """Return (page, offset, cycles), faulting the page in if needed."""
        base = self._page_base(addr)
        cycles = 0
        if base in self._buffer:
            self._buffer.move_to_end(base)
        else:
            cycles += self._fault_in(port, base)
        return self._buffer[base], addr - base, cycles

    # -- system entry points -------------------------------------------------

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        out: List[Tuple[bytes, int]] = []
        for addr in addrs:
            page, offset, cycles = self._resident(port, addr)
            cycles += self.sram_latency
            out.append((bytes(page.data[offset: offset + line_size]), cycles))
        return out

    def write_line(self, port: MemoryPort, addr: int, plaintext: bytes) -> int:
        page, offset, cycles = self._resident(port, addr)
        page.data[offset: offset + len(plaintext)] = plaintext
        page.dirty = True
        return cycles + self.sram_latency

    def write_partial(self, port: MemoryPort, addr: int, data: bytes,
                      line_size: int) -> int:
        # The page buffer absorbs any granularity: no read-modify-write.
        return self.write_line(port, addr, data)

    def flush(self, port: MemoryPort) -> int:
        """Write back every dirty page (end-of-run barrier); returns cycles."""
        cycles = 0
        while self._buffer:
            cycles += self._evict_lru(port)
        return cycles

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("tdes_pipelined")
        est.add_block("dma_controller")
        est.add_sram("page-buffer", self.buffer_pages * self.page_size)
        est.add_block("control_overhead")
        return est
