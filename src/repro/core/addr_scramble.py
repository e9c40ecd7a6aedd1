"""Line-address scrambling as a system-level countermeasure.

Best's patents enciphered addresses as well as data, and
:mod:`repro.attacks.access_pattern` shows why one might want to: content
encryption leaves the access *pattern* on the pins.  This wrapper permutes
the line-address space with a keyed bijection before any inner engine sees
it, so a probe watches fetches hop pseudo-randomly through physical memory
instead of walking the program counter.

What it buys and what it doesn't (measured in the tests):

* a sequential victim is no longer classifiable as sequential — the
  first-order pattern leak closes;
* the working-set *size* and line *revisit* structure still leak (the
  permutation is fixed), and so does timing — the honest limits, which is
  why the real fix (ORAM) costs so much more.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..crypto.address_scrambler import AddressScrambler
from ..sim.area import AreaEstimate
from .engine import BusEncryptionEngine, MemoryPort

__all__ = ["AddressScrambledEngine"]


class AddressScrambledEngine(BusEncryptionEngine):
    """Wrap any engine with a keyed line-address permutation.

    ``region_lines`` line slots starting at ``region_base`` are permuted;
    the inner engine operates on (and tweaks by) the *physical* line
    address, exactly like the scrambled Dallas parts.
    """

    name = "addr-scrambled"
    #: Address scrambling hides *where* a line lives, it never rejects a
    #: tampered line; detection is whatever the wrapped engine provides.
    detects = frozenset()

    def __init__(
        self,
        inner: BusEncryptionEngine,
        addr_key: bytes,
        region_base: int = 0,
        region_lines: int = 1024,
        line_size: int = 32,
        translate_latency: int = 1,
    ):
        super().__init__(functional=inner.functional)
        self.inner = inner
        self.region_base = region_base
        self.region_lines = region_lines
        self.line_size = line_size
        self.translate_latency = translate_latency
        self.min_write_bytes = inner.min_write_bytes
        self._scrambler = AddressScrambler(addr_key, size=region_lines)
        self.name = f"addr-scrambled({inner.name})"

    # -- translation -------------------------------------------------------

    def physical(self, addr: int) -> int:
        """Logical byte address -> physical byte address (line granular)."""
        offset = addr - self.region_base
        line, within = divmod(offset, self.line_size)
        if not 0 <= line < self.region_lines:
            raise ValueError(
                f"address {addr:#x} outside the scrambled region"
            )
        return (self.region_base
                + self._scrambler.scramble(line) * self.line_size + within)

    # -- functional transform (inner, keyed by physical address) ------------

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        return self.inner.encrypt_line(self.physical(addr), plaintext)

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        return self.inner.decrypt_line(self.physical(addr), ciphertext)

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        return self.translate_latency + self.inner.read_extra_cycles(
            self.physical(addr), nbytes, mem_cycles
        )

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        return self.translate_latency + self.inner.write_extra_cycles(
            self.physical(addr), nbytes
        )

    # -- system entry points ---------------------------------------------------

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        if line_size != self.line_size:
            raise ValueError(
                f"engine line size {self.line_size} != system {line_size}"
            )
        if len(plaintext) % line_size != 0:
            plaintext = plaintext + b"\x00" * (
                line_size - len(plaintext) % line_size
            )
        items = [
            (self.physical(base_addr + offset),
             plaintext[offset: offset + line_size])
            for offset in range(0, len(plaintext), line_size)
        ]
        for (phys, _), ciphertext in zip(items,
                                         self.inner.encrypt_lines(items)):
            memory.load_image(phys, ciphertext)

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        filled = self.inner.fill_lines(
            port, [self.physical(addr) for addr in addrs], line_size
        )
        self.stats.lines_decrypted += len(filled)
        return [(plaintext, cycles + self.translate_latency)
                for plaintext, cycles in filled]

    def write_line(self, port: MemoryPort, addr: int, plaintext: bytes) -> int:
        phys = self.physical(addr)
        self.stats.lines_encrypted += 1
        return self.translate_latency + self.inner.write_line(
            port, phys, plaintext
        )

    def write_partial(self, port: MemoryPort, addr: int, data: bytes,
                      line_size: int) -> int:
        line_start = addr - addr % line_size
        phys_line = self.physical(line_start)
        phys = phys_line + (addr - line_start)
        return self.translate_latency + self.inner.write_partial(
            port, phys, data, line_size
        )

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        inner = self.inner.area()
        for label, gates in inner.items.items():
            est.add(f"inner/{label}", gates)
        # A small Feistel permutation network on the address lines.
        est.add("address-permutation", 4_000)
        return est
