"""Stream-cipher (pad-ahead) bus encryption engine (survey Figure 2a).

"In our context, stream cipher seems to be more suitable in term of
performance: the key stream generation can be parallelised with external
data fetch.  The shortcoming of block cipher cryptosystems is that
deciphering cannot start until a complete block has been received."

The engine realizes that observation with AES in counter mode as the
keystream generator (seekable by line address and version, so pads can be
produced *before* the data arrives):

* On a fill, the pad for the line is either already in the on-chip pad
  cache (hit: one XOR cycle on the critical path) or generated concurrently
  with the memory fetch (cost only the amount by which pad generation
  exceeds the fetch, usually zero — the survey's parallelism argument).
* After each fill the engine precomputes pads for the next
  ``pad_ahead_depth`` sequential lines.  The pad cache is a timing and
  membership model: it records which line addresses have a pad on chip
  (hit/miss stats and cycles follow from that), while the functional
  decrypt regenerates every pad from the seekable keystream, so pad-ahead
  itself costs no cipher work.
* Writes need a *fresh* pad (never reuse keystream): each line carries a
  version counter mixed into the CTR tweak.  ``reuse_pad_on_partial_write``
  (default off) models the tempting-but-broken shortcut of patching bytes
  under the old pad; :mod:`repro.analysis.security` demonstrates the
  two-time-pad leak it causes, and tests pin it.

E02 sweeps memory latency to place the stream-vs-block crossover; E12 reuses
the pad machinery for the CPU-cache placement study.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.kernels import aes_kernel
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit, XOM_AES_PIPE
from .engine import BusEncryptionEngine, MemoryPort

__all__ = ["StreamCipherEngine"]


class StreamCipherEngine(BusEncryptionEngine):
    """Seekable-keystream engine with an on-chip pad cache."""

    name = "stream-ctr"
    min_write_bytes = 1
    #: Confidentiality only — worse, XOR pads make undetected bit-flips
    #: *surgical*: flipping ciphertext bit i flips plaintext bit i.
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        line_size: int = 32,
        pad_cache_lines: int = 16,
        pad_ahead_depth: int = 2,
        unit: PipelinedUnit = XOM_AES_PIPE,
        reuse_pad_on_partial_write: bool = False,
        functional: bool = True,
    ):
        super().__init__(functional=functional)
        if pad_cache_lines < 1:
            raise ValueError(f"pad_cache_lines must be >= 1, got {pad_cache_lines}")
        self._aes = aes_kernel(key)
        self.line_size = line_size
        self.unit = unit
        self.pad_cache_lines = pad_cache_lines
        self.pad_ahead_depth = pad_ahead_depth
        self.reuse_pad_on_partial_write = reuse_pad_on_partial_write
        # Pad cache: the line addresses whose pads are on chip (LRU).  Only
        # membership sets the timing, and every decrypt regenerates its
        # pad, so no pad bytes are kept.
        self._pad_cache: "OrderedDict[int, None]" = OrderedDict()
        # Per-line write version, mixed into the keystream tweak.
        self._versions: Dict[int, int] = {}

    # -- keystream -----------------------------------------------------------

    def _pad(self, addr: int, nbytes: int, version: Optional[int] = None) -> bytes:
        """Keystream for [addr, addr+nbytes) at the line's current version."""
        if version is None:
            version = self._versions.get(addr - addr % self.line_size, 0)
        return self._keystream([(addr, nbytes, version)])[0]

    def _keystream(self, spans: Sequence[Tuple[int, int, int]]
                   ) -> List[bytes]:
        """Pads for ``(addr, nbytes, version)`` spans in one keystream call.

        The CTR counter block of each 16-byte block is the version-tagged
        block index, so any span's pad is seekable by address alone.
        """
        size = 16
        material: List[bytes] = []
        for addr, nbytes, version in spans:
            prefix = b"pad!" + version.to_bytes(4, "big")
            start = addr - addr % size
            end = -(-(addr + nbytes) // size) * size
            material.append(b"".join(
                prefix + (block_addr // 16).to_bytes(8, "big")
                for block_addr in range(start, end, size)
            ))
        pad = self._aes.encrypt_blocks(b"".join(material))
        out: List[bytes] = []
        pos = 0
        for addr, nbytes, _ in spans:
            offset = addr % size
            out.append(pad[pos + offset: pos + offset + nbytes])
            pos += -(-(offset + nbytes) // size) * size
        return out

    def _pad_blocks(self, nbytes: int) -> int:
        return -(-nbytes // 16)

    def _cache_pad(self, line_addr: int) -> None:
        if line_addr in self._pad_cache:
            self._pad_cache.move_to_end(line_addr)
            return
        self._pad_cache[line_addr] = None
        while len(self._pad_cache) > self.pad_cache_lines:
            self._pad_cache.popitem(last=False)

    # -- functional transform ------------------------------------------------

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        line_addr = addr - addr % self.line_size
        # A (re)encryption is a write: advance the version, invalidating any
        # cached pad for the line.
        self._versions[line_addr] = self._versions.get(line_addr, 0) + 1
        self._pad_cache.pop(line_addr, None)
        return xor_bytes(plaintext, self._pad(addr, len(plaintext)))

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        return xor_bytes(ciphertext, self._pad(addr, len(ciphertext)))

    def encrypt_lines(self, items):
        # Install batch: advance every line's version in order (exactly
        # like per-line encrypt_line), then produce the whole keystream
        # in one kernel call.
        spans = []
        for addr, line in items:
            line_addr = addr - addr % self.line_size
            version = self._versions.get(line_addr, 0) + 1
            self._versions[line_addr] = version
            self._pad_cache.pop(line_addr, None)
            spans.append((addr, len(line), version))
        return [xor_bytes(line, pad)
                for (_, line), pad in zip(items, self._keystream(spans))]

    def decrypt_lines(self, items):
        # Versions only advance on writes, so every line's decrypt pad is
        # known up front and the whole group's keystream comes from one
        # batched call.
        versions = self._versions
        spans = [
            (addr, len(ct), versions.get(addr - addr % self.line_size, 0))
            for addr, ct in items
        ]
        return [xor_bytes(ct, pad)
                for (_, ct), pad in zip(items, self._keystream(spans))]

    # -- timing ---------------------------------------------------------------

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        nblocks = self._pad_blocks(nbytes)
        self.stats.blocks_processed += nblocks
        if addr in self._pad_cache:
            self.stats.pad_hits += 1
            extra = 1  # XOR only
        else:
            self.stats.pad_misses += 1
            pad_cycles = self.unit.time_for(nblocks)
            # Keystream generation runs concurrently with the fetch; only the
            # excess (plus the final XOR) reaches the critical path.
            extra = max(0, pad_cycles - mem_cycles) + 1
        return extra

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        nblocks = self._pad_blocks(nbytes)
        self.stats.blocks_processed += nblocks
        # The fresh-version pad depends only on (addr, version) and can be
        # produced while the writeback sits in the write buffer; one XOR
        # cycle lands on the path.
        return 1

    # -- system hooks ----------------------------------------------------------

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        # Pad-ahead runs after each line's fetch, in order: the next
        # line's pad-cache lookup (its timing and hit/miss stats) depends
        # on it.  The group's decrypt pads are batched afterwards.
        fetched = []
        for addr in addrs:
            fetched.append(self._fetch(port, addr, line_size))
            for i in range(1, self.pad_ahead_depth + 1):
                self._cache_pad(addr + i * line_size)
        return self._decipher(addrs, fetched)

    def write_partial(self, port: MemoryPort, addr: int, data: bytes,
                      line_size: int) -> int:
        if self.reuse_pad_on_partial_write:
            # INSECURE shortcut: patch the bytes under the existing pad (no
            # version bump, no read-modify-write).  Two writes to the same
            # bytes leak their XOR; kept only as a measurable design mistake.
            self.stats.blocks_processed += self._pad_blocks(len(data))
            self._emit("encipher", addr, len(data), "pad-reuse")
            ciphertext = (
                xor_bytes(data, self._pad(addr, len(data)))
                if self.functional else data
            )
            return 1 + port.write(addr, ciphertext)

        if addr % line_size == 0 and len(data) % line_size == 0:
            return self.write_line(port, addr, data)

        # Secure partial write: the fresh version re-keys the whole line, so
        # the untouched bytes must be re-enciphered too — a full-line
        # read-modify-write despite the byte-granular cipher.
        return self._read_modify_write(
            port, addr, data, addr - addr % line_size,
            -(-(addr + len(data)) // line_size) * line_size,
        )

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("aes_pipelined")
        est.add_sram("pad-cache", self.pad_cache_lines * self.line_size)
        est.add_sram("version-table", 4 * 4096)
        est.add_block("control_overhead")
        return est
