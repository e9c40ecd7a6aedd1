"""Integrity-protected bus encryption (the survey's §5 future work).

"In future exploration, it might also be relevant to take into account the
problem of integrity, to thwart attacks based on the modification of the
fetched instructions."

:class:`IntegrityShieldEngine` composes any confidentiality engine with
per-cache-line authentication:

* every line carries a truncated HMAC-SHA256 tag over
  ``(address, version, ciphertext)``, stored in a reserved tag region of
  external memory (like real integrity engines' tag arrays);
* line fills fetch and verify the tag; a mismatch raises
  :class:`TamperDetected` — spoofed or corrupted instructions never reach
  the CPU;
* **replay protection** is the interesting design choice: with
  ``versioned=True`` (default) each line's write counter is kept in on-chip
  SRAM and mixed into the tag, so replaying an *old* (ciphertext, tag) pair
  recorded from the bus is detected.  With ``versioned=False`` the tag only
  covers (address, ciphertext), and a recorded pair replays cleanly — the
  ablation E15 measures, and the reason real designs (AEGIS trees) pay for
  version state.

Timing: each fill adds a tag fetch (through a small on-chip tag cache —
tags have 4-to-a-block spatial locality) plus the residual of the MAC
check that does not overlap the data fetch; each writeback adds a tag
computation and store.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..crypto.hmac import consttime_eq, hmac_sha256
from ..sim.area import AreaEstimate
from .engine import BusEncryptionEngine, MemoryPort, TamperDetected

# TamperDetected historically lived here; it is now the canonical verdict
# exception in repro.core.engine and stays importable from this module.
__all__ = ["IntegrityShieldEngine", "TamperDetected"]


class IntegrityShieldEngine(BusEncryptionEngine):
    """Confidentiality engine + per-line MAC tags + optional anti-replay."""

    name = "integrity-shield"

    def __init__(
        self,
        inner: BusEncryptionEngine,
        mac_key: bytes,
        tag_region_base: int,
        tag_bytes: int = 8,
        versioned: bool = True,
        hash_latency: int = 64,
        tracked_lines: int = 4096,
        tag_cache_blocks: int = 32,
    ):
        super().__init__(functional=inner.functional)
        if not 4 <= tag_bytes <= 32:
            raise ValueError(f"tag_bytes must be in [4, 32], got {tag_bytes}")
        self.inner = inner
        self.mac_key = mac_key
        self.tag_region_base = tag_region_base
        self.tag_bytes = tag_bytes
        self.versioned = versioned
        self.hash_latency = hash_latency
        self.tracked_lines = tracked_lines
        self.min_write_bytes = inner.min_write_bytes
        #: On-chip write counters (anti-replay state).
        self._versions: Dict[int, int] = {}
        #: On-chip tag cache: tags have spatial locality (a 32-byte tag
        #: block covers 32/tag_bytes consecutive data lines), so sequential
        #: fills amortize one tag fetch over several lines.  Size 0 fetches
        #: every tag individually (the naive model, kept as an ablation).
        self.tag_cache_blocks = tag_cache_blocks
        from collections import OrderedDict
        self._tag_cache: "OrderedDict[int, bytearray]" = OrderedDict()
        self.tag_cache_hits = 0
        self.tag_cache_misses = 0
        self._line_size_hint = 32

    # -- verdict accounting ------------------------------------------------
    #
    # Tag checks report through the uniform verdict path
    # (``BusEncryptionEngine.verify_line`` -> ``self.verdicts``).

    @property
    def detects(self) -> FrozenSet[str]:
        """Fault kinds the shield catches: any forged/relocated/flipped
        line breaks its (address, version, ciphertext) tag; replay of a
        recorded (line, tag) pair needs the on-chip version counters."""
        kinds = {"spoof", "splice", "glitch"}
        if self.versioned:
            kinds.add("replay")
        return frozenset(kinds)

    # -- tag plumbing -----------------------------------------------------

    def _tag_addr(self, addr: int, line_size: int) -> int:
        return self.tag_region_base + (addr // line_size) * self.tag_bytes

    def _compute_tag(self, addr: int, ciphertext: bytes) -> bytes:
        version = self._versions.get(addr, 0) if self.versioned else 0
        material = (
            addr.to_bytes(8, "big")
            + version.to_bytes(8, "big")
            + ciphertext
        )
        return hmac_sha256(self.mac_key, material)[: self.tag_bytes]

    # -- tag cache (32-byte tag blocks) -------------------------------------

    def _read_tag(self, port: MemoryPort, addr: int, line_size: int
                  ) -> Tuple[bytes, int]:
        """Fetch one line's tag, through the on-chip tag cache."""
        tag_addr = self._tag_addr(addr, line_size)
        if self.tag_cache_blocks <= 0:
            tag, cycles = port.read(tag_addr, self.tag_bytes)
            return bytes(tag), cycles
        block_addr = tag_addr - tag_addr % 32
        offset = tag_addr - block_addr
        block = self._tag_cache.get(block_addr)
        if block is not None:
            self._tag_cache.move_to_end(block_addr)
            self.tag_cache_hits += 1
            return bytes(block[offset: offset + self.tag_bytes]), 1
        self.tag_cache_misses += 1
        data, cycles = port.read(block_addr, 32)
        block = bytearray(data)
        self._tag_cache[block_addr] = block
        while len(self._tag_cache) > self.tag_cache_blocks:
            self._tag_cache.popitem(last=False)
        return bytes(block[offset: offset + self.tag_bytes]), cycles

    def _write_tag(self, port: MemoryPort, addr: int, line_size: int,
                   tag: bytes) -> int:
        """Store one line's tag, keeping the cache coherent."""
        tag_addr = self._tag_addr(addr, line_size)
        if self.tag_cache_blocks > 0:
            block_addr = tag_addr - tag_addr % 32
            block = self._tag_cache.get(block_addr)
            if block is not None:
                offset = tag_addr - block_addr
                block[offset: offset + self.tag_bytes] = tag
        return port.write(tag_addr, tag)

    # -- functional transform (delegated) ----------------------------------

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        return self.inner.encrypt_line(addr, plaintext)

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        return self.inner.decrypt_line(addr, ciphertext)

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        return self.inner.read_extra_cycles(addr, nbytes, mem_cycles)

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        return self.inner.write_extra_cycles(addr, nbytes)

    # -- installation -------------------------------------------------------

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        self._line_size_hint = line_size
        if len(plaintext) % line_size != 0:
            plaintext = plaintext + b"\x00" * (
                line_size - len(plaintext) % line_size
            )
        items = [
            (base_addr + offset, plaintext[offset: offset + line_size])
            for offset in range(0, len(plaintext), line_size)
        ]
        for (addr, _), ciphertext in zip(items,
                                         self.inner.encrypt_lines(items)):
            memory.load_image(addr, ciphertext)
            memory.load_image(
                self._tag_addr(addr, line_size),
                self._compute_tag(addr, ciphertext),
            )

    # -- fills / writes -------------------------------------------------------

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        self._line_size_hint = line_size
        out: List[Tuple[bytes, int]] = []
        for addr in addrs:
            ciphertext, mem_cycles = port.read(addr, line_size)
            tag, tag_cycles = self._read_tag(port, addr, line_size)
            # The MAC engine digests ciphertext beats as they arrive, so only
            # the residual drain past the fetch lands on the critical path.
            hash_residual = max(0, self.hash_latency - mem_cycles) + 4
            cycles = mem_cycles + tag_cycles + hash_residual

            ok = (not self.functional
                  or consttime_eq(bytes(tag),
                                  self._compute_tag(addr, ciphertext)))
            if not self.verify_line(addr, line_size, ok):
                raise TamperDetected(
                    f"line at {addr:#x} failed integrity verification"
                )
            extra = self.inner.read_extra_cycles(addr, line_size, mem_cycles)
            cycles += extra
            self.stats.lines_decrypted += 1
            self.stats.extra_read_cycles += extra + tag_cycles + hash_residual
            self._emit("decipher", addr, line_size)
            stall = extra + tag_cycles + hash_residual
            if stall:
                self._emit("stall", addr, stall, "read")
            plaintext = (
                self.inner.decrypt_line(addr, ciphertext)
                if self.functional else ciphertext
            )
            out.append((plaintext, cycles))
        return out

    def write_line(self, port: MemoryPort, addr: int, plaintext: bytes) -> int:
        if self.versioned:
            self._versions[addr] = self._versions.get(addr, 0) + 1
        extra = self.inner.write_extra_cycles(addr, len(plaintext))
        ciphertext = (
            self.inner.encrypt_line(addr, plaintext)
            if self.functional else plaintext
        )
        cycles = extra + port.write(addr, ciphertext)
        tag = self._compute_tag(addr, ciphertext) if self.functional \
            else bytes(self.tag_bytes)
        cycles += self._write_tag(
            port, addr, len(plaintext), tag
        ) + self.hash_latency
        self.stats.lines_encrypted += 1
        self.stats.extra_write_cycles += extra + self.hash_latency
        self._emit("encipher", addr, len(plaintext))
        self._emit("stall", addr, extra + self.hash_latency, "write")
        return cycles

    def write_partial(self, port: MemoryPort, addr: int, data: bytes,
                      line_size: int) -> int:
        # Integrity forces line-granular read-verify-modify-write: the tag
        # covers the whole line.
        start = addr - addr % line_size
        self.stats.rmw_operations += 1
        self._emit("rmw", addr, line_size)
        plaintext, read_cycles = self.fill_line(port, start, line_size)
        patched = bytearray(plaintext)
        patched[addr - start: addr - start + len(data)] = data
        return read_cycles + self.write_line(port, start, bytes(patched))

    # -- area ---------------------------------------------------------------

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        inner = self.inner.area()
        for label, gates in inner.items.items():
            est.add(f"inner/{label}", gates)
        est.add_block("hmac_sha256")
        if self.versioned:
            est.add_sram("version-table", 4 * self.tracked_lines)
        if self.tag_cache_blocks > 0:
            est.add_sram("tag-cache", 32 * self.tag_cache_blocks)
        est.add_block("control_overhead")
        return est

    # -- memory overhead -------------------------------------------------------

    def tag_overhead_fraction(self, line_size: Optional[int] = None) -> float:
        """External-memory space consumed by tags (e.g. 8/32 = 25%)."""
        line = line_size or self._line_size_hint
        return self.tag_bytes / line
