"""General Instrument's 3DES-CBC engine with keyed-hash authentication
(survey Figure 5, patent [11]).

"Another patent, by General Instrument Corporation, proposed to encrypt the
memory content with a 3-DES in block chaining mode (CBC), and to offer the
possibility to authenticate the data coming from external memory thanks to a
keyed hash algorithm.  Nonetheless ... cipher block chaining technique is
very robust but implies unacceptable CPU performance degradation for random
accesses in external memory."

Modeling notes.  The patent chains (and reorders) blocks across a whole
protected *region*; reconstructing any line requires processing the chain
from the region start — that is the random-access penalty the survey calls
unacceptable, and what E08 measures.  A write to a line invalidates every
subsequent ciphertext block in its region, so the chain is re-enciphered
from the written block to the region end.  Region size is a parameter
(whole-image chaining is ``region_size = image size``); at
``region_size == line_size`` the design degenerates into AEGIS-style
per-line chaining, which E08's sweep includes as the fixed point.

Authentication: each region carries an HMAC-SHA256 tag over its ciphertext
(encrypt-then-MAC).  ``verify_region`` recomputes it, detecting any bus- or
memory-level tamper; the timing model charges one hash-pipeline pass per
verified region entry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..crypto.hmac import hmac_sha256, verify_hmac
from ..crypto.kernels import tdes_kernel
from ..crypto.modes import CBC
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit, TDES_ITERATIVE
from .engine import BusEncryptionEngine, MemoryPort, TamperDetected

__all__ = ["GeneralInstrumentEngine", "AuthenticationError"]

#: Memoized region transforms, keyed (key schedule, region base, bytes).
#: ~1 KiB per entry at the default region size.
_REGION_MEMO: "OrderedDict[tuple, bytes]" = OrderedDict()
_REGION_MEMO_MAX = 512


class AuthenticationError(TamperDetected):
    """A region's keyed-hash tag did not match its contents."""


class GeneralInstrumentEngine(BusEncryptionEngine):
    """Region-chained 3DES-CBC with HMAC authentication."""

    name = "general-instrument-3des-cbc"

    def __init__(
        self,
        key: bytes,
        mac_key: bytes = None,
        region_size: int = 1024,
        line_size: int = 32,
        unit: PipelinedUnit = TDES_ITERATIVE,
        authenticate: bool = True,
        reorder: bool = False,
        hash_latency: int = 64,
        functional: bool = True,
    ):
        if region_size % line_size != 0:
            raise ValueError(
                f"region_size {region_size} must be a multiple of "
                f"line_size {line_size}"
            )
        super().__init__(functional=functional)
        self._tdes = tdes_kernel(key)
        # Memo identity for region transforms: the raw key bytes, not the
        # kernel object — every backend rung (table kernel, reference
        # wrapper) computes the same function of (key, base, bytes).
        self._tdes_key = bytes(key)
        self._mac_key = mac_key if mac_key is not None else bytes(
            b ^ 0xA5 for b in key
        )
        self.region_size = region_size
        self.line_size = line_size
        self.unit = unit
        self.authenticate = authenticate
        #: The patent's second layer: ciphertext blocks are stored in a
        #: keyed permuted order within the region.  Costs the sequential
        #: chain shortcut (continuations become scattered fetches) and
        #: turns restarts into whole-region bursts.
        self.reorder = reorder
        self.hash_latency = hash_latency
        self.min_write_bytes = 8
        self._perm_cache: Dict[int, list] = {}
        #: Region base address -> HMAC tag over the region ciphertext.
        self._tags: Dict[int, bytes] = {}
        #: Regions whose tag has been checked since last modification.
        self._verified: set = set()
        #: CBC chain register: region base -> (next sequential address,
        #: last ciphertext block).  A fill continuing exactly where the
        #: previous one stopped keeps chaining without reprocessing the
        #: prefix — the hardware keeps the chaining value in a register, so
        #: sequential walks are cheap and JUMPs pay the restart (§2.2).
        self._chain_state: Dict[int, Tuple[int, bytes]] = {}
        self.chain_hits = 0
        self.chain_restarts = 0

    @property
    def detects(self) -> FrozenSet[str]:
        """With ``authenticate=True`` the keyed hash over a whole region's
        ciphertext catches every stored-bytes attack, replay included —
        the reference tag lives in on-chip state, not in external memory.
        Without it the chained cipher only garbles, never rejects."""
        if not self.authenticate:
            return frozenset()
        return frozenset({"spoof", "splice", "replay", "glitch"})

    # -- region geometry ---------------------------------------------------

    def _region_base(self, addr: int) -> int:
        return addr - addr % self.region_size

    def _region_iv(self, base: int) -> bytes:
        return self._tdes.encrypt_block(base.to_bytes(8, "big"))

    # -- block reordering ---------------------------------------------------

    def _permutation(self, base: int) -> list:
        """Keyed storage permutation: logical block i lives at slot P[i]."""
        cached = self._perm_cache.get(base)
        if cached is not None:
            return cached
        from ..crypto.hmac import prf

        n = self.region_size // 8
        material = prf(self._mac_key, b"reorder", base.to_bytes(8, "big"),
                       out_len=4 * n)
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            r = int.from_bytes(material[2 * i: 2 * i + 2], "big") % (i + 1)
            perm[i], perm[r] = perm[r], perm[i]
        self._perm_cache[base] = perm
        return perm

    def _permute_store(self, base: int, logical_ct: bytes) -> bytes:
        """Logical (chained-order) ciphertext -> stored layout."""
        if not self.reorder:
            return logical_ct
        perm = self._permutation(base)
        stored = bytearray(len(logical_ct))
        for i in range(len(logical_ct) // 8):
            stored[perm[i] * 8: perm[i] * 8 + 8] = \
                logical_ct[i * 8: i * 8 + 8]
        return bytes(stored)

    def _unpermute_load(self, base: int, stored: bytes) -> bytes:
        """Stored layout -> logical (chained-order) ciphertext."""
        if not self.reorder:
            return stored
        perm = self._permutation(base)
        logical = bytearray(len(stored))
        for i in range(len(stored) // 8):
            logical[i * 8: i * 8 + 8] = \
                stored[perm[i] * 8: perm[i] * 8 + 8]
        return bytes(logical)

    # -- whole-region functional transform -----------------------------------
    #
    # Region transforms are pure functions of (key schedule, base, bytes):
    # the IV derives from the base alone.  The suite re-installs the same
    # images into fresh rigs constantly (sweeps, campaigns, overhead
    # grids), and the serial 3DES-CBC chain is the most expensive cipher
    # in the registry, so identical transforms are memoized module-wide.

    def _encrypt_region(self, base: int, plaintext: bytes) -> bytes:
        key = (self._tdes_key, "enc", base, plaintext)
        cached = _REGION_MEMO.get(key)
        if cached is None:
            cached = CBC(self._tdes, self._region_iv(base)).encrypt(plaintext)
            _REGION_MEMO[key] = cached
            while len(_REGION_MEMO) > _REGION_MEMO_MAX:
                _REGION_MEMO.popitem(last=False)
        else:
            _REGION_MEMO.move_to_end(key)
        return cached

    def _decrypt_region(self, base: int, ciphertext: bytes) -> bytes:
        key = (self._tdes_key, "dec", base, ciphertext)
        cached = _REGION_MEMO.get(key)
        if cached is None:
            cached = CBC(self._tdes, self._region_iv(base)).decrypt(ciphertext)
            _REGION_MEMO[key] = cached
            while len(_REGION_MEMO) > _REGION_MEMO_MAX:
                _REGION_MEMO.popitem(last=False)
        else:
            _REGION_MEMO.move_to_end(key)
        return cached

    # -- BusEncryptionEngine interface ----------------------------------------
    #
    # encrypt_line/decrypt_line operate in region context: the engine reads
    # whatever prefix of the region the chain requires.  They are exercised
    # through install_image / fill_lines / write_line below, which carry the
    # memory handle needed for the chained prefix.

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        raise NotImplementedError(
            "region-chained engine: use install_image/fill_line/write_line"
        )

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        raise NotImplementedError(
            "region-chained engine: use install_image/fill_line/write_line"
        )

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        raise NotImplementedError

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        raise NotImplementedError

    # -- installation ------------------------------------------------------------

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        if base_addr % self.region_size != 0:
            raise ValueError(
                f"image base {base_addr:#x} must align to the region size"
            )
        if len(plaintext) % self.region_size != 0:
            plaintext = plaintext + b"\x00" * (
                self.region_size - len(plaintext) % self.region_size
            )
        for offset in range(0, len(plaintext), self.region_size):
            base = base_addr + offset
            region = plaintext[offset: offset + self.region_size]
            stored = self._permute_store(base, self._encrypt_region(base, region))
            memory.load_image(base, stored)
            self._tags[base] = hmac_sha256(self._mac_key, stored)

    # -- fill / write ---------------------------------------------------------------

    def _chain_blocks_to(self, base: int, addr: int, nbytes: int) -> int:
        """8-byte chain blocks that must be processed to reach the target."""
        return (addr + nbytes - base) // 8

    def _fill_line_reordered(self, port: MemoryPort, addr: int,
                             line_size: int) -> Tuple[bytes, int]:
        """Reordered layout: any fill is a whole-region burst + un-permute."""
        base = self._region_base(addr)
        stored, cycles = port.read(base, self.region_size)
        nblocks = self._chain_blocks_to(base, addr, line_size)
        extra = self.unit.drain_after_arrivals(nblocks, 1)
        cycles += extra
        self.stats.lines_decrypted += 1
        self.stats.blocks_processed += line_size // 8
        self.stats.extra_read_cycles += extra
        self._emit("decipher", addr, line_size, "reordered")
        if extra:
            self._emit("stall", addr, extra, "read")

        if self.authenticate and base not in self._verified:
            cycles += self.hash_latency
            tag = self._tags.get(base)
            ok = (not self.functional
                  or (tag is not None
                      and verify_hmac(self._mac_key, bytes(stored), tag)))
            if not self.verify_line(base, self.region_size, ok):
                raise AuthenticationError(
                    f"region at {base:#x} failed keyed-hash verification"
                )
            self._verified.add(base)

        if self.functional:
            logical = self._unpermute_load(base, bytes(stored))
            offset = addr - base
            chain_iv = (logical[offset - 8: offset] if offset > 0
                        else self._region_iv(base))
            plaintext = CBC(self._tdes, chain_iv).decrypt(
                logical[offset: offset + line_size]
            )
        else:
            plaintext = bytes(stored[addr - base: addr - base + line_size])
        return plaintext, cycles

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        fill = (self._fill_line_reordered if self.reorder
                else self._fill_line_chained)
        return [fill(port, addr, line_size) for addr in addrs]

    def _fill_line_chained(self, port: MemoryPort, addr: int, line_size: int
                           ) -> Tuple[bytes, int]:
        base = self._region_base(addr)
        chain = self._chain_state.get(base)
        cycles = 0

        if chain is not None and chain[0] == addr:
            # Sequential continuation: the chaining value sits in the
            # hardware register; only the requested line crosses the bus.
            self.chain_hits += 1
            chain_iv = chain[1]
            line_ct, mem_cycles = port.read(addr, line_size)
            nblocks = line_size // 8
            extra = self.unit.drain_after_arrivals(nblocks, 1)
            cycles += mem_cycles + extra
            prefix_ct = None
        else:
            # JUMP: the chain restarts from the region base — the random
            # access penalty the survey calls unacceptable.
            self.chain_restarts += 1
            span = addr + line_size - base
            prefix_ct, mem_cycles = port.read(base, span)
            nblocks = self._chain_blocks_to(base, addr, line_size)
            extra = self.unit.drain_after_arrivals(nblocks, 1)
            cycles += mem_cycles + extra
            line_ct = prefix_ct[addr - base:]
            chain_iv = (
                prefix_ct[addr - base - 8: addr - base]
                if addr > base else self._region_iv(base)
            )

        self.stats.lines_decrypted += 1
        self.stats.blocks_processed += line_size // 8
        self.stats.extra_read_cycles += extra
        self._emit("decipher", addr, line_size,
                   "chain" if prefix_ct is None else "jump")
        if extra:
            self._emit("stall", addr, extra, "read")

        if self.authenticate and base not in self._verified:
            # First touch of the region: fetch whatever of the region has
            # not been read yet and verify the keyed hash over all of it.
            already = len(prefix_ct) if prefix_ct is not None else 0
            if prefix_ct is None:
                head, head_cycles = port.read(base, addr - base)
                cycles += head_cycles
                prefix_ct = head + line_ct
                already = len(prefix_ct)
            rest, rest_cycles = port.read(
                base + already, self.region_size - already
            )
            cycles += rest_cycles + self.hash_latency
            full = prefix_ct + rest
            tag = self._tags.get(base)
            ok = (not self.functional
                  or (tag is not None
                      and verify_hmac(self._mac_key, full, tag)))
            if not self.verify_line(base, self.region_size, ok):
                raise AuthenticationError(
                    f"region at {base:#x} failed keyed-hash verification"
                )
            self._verified.add(base)

        if self.functional:
            plaintext = CBC(self._tdes, chain_iv).decrypt(line_ct[:line_size])
        else:
            plaintext = bytes(line_ct[:line_size])

        # Advance the chain register past this line (unless at region end).
        next_addr = addr + line_size
        if next_addr < base + self.region_size:
            self._chain_state[base] = (next_addr, bytes(line_ct[line_size - 8: line_size]))
        else:
            self._chain_state.pop(base, None)
        return plaintext, cycles

    def write_line(self, port: MemoryPort, addr: int, plaintext: bytes) -> int:
        """Rewrite a line: re-encipher the chain from the line to region end."""
        base = self._region_base(addr)
        # Re-enciphering the tail needs the plaintext of everything from the
        # written line to the region end, hence a full region fetch first.
        cycles = 0
        tail_start = addr - base
        region_ct, read_cycles = port.read(base, self.region_size)
        cycles += read_cycles
        dec_blocks = self.region_size // 8
        cycles += self.unit.drain_after_arrivals(dec_blocks, 1)
        self.stats.blocks_processed += dec_blocks

        if self.functional:
            logical_ct = self._unpermute_load(base, bytes(region_ct))
            # CBC prefix reuse: blocks before the written line keep their
            # plaintext, so re-enciphering them reproduces the stored
            # ciphertext bit-for-bit.  Only the tail needs the cipher —
            # decrypt it, patch the line, re-chain from the same IV.
            chain_iv = (logical_ct[tail_start - 8: tail_start]
                        if tail_start else self._region_iv(base))
            tail_plain = bytearray(
                CBC(self._tdes, chain_iv).decrypt(logical_ct[tail_start:])
            )
            tail_plain[: len(plaintext)] = plaintext
            new_logical = logical_ct[:tail_start] + CBC(
                self._tdes, chain_iv
            ).encrypt(bytes(tail_plain))
            new_stored = self._permute_store(base, new_logical)
        else:
            region_plain = bytearray(region_ct)
            region_plain[tail_start: tail_start + len(plaintext)] = plaintext
            new_logical = bytes(region_plain)
            new_stored = new_logical

        enc_blocks = (self.region_size - tail_start) // 8
        # CBC encryption is inherently serial: latency per block.
        enc_cycles = enc_blocks * self.unit.latency
        cycles += enc_cycles
        self.stats.lines_encrypted += 1
        self.stats.extra_write_cycles += enc_cycles
        self._emit("encipher", addr, len(plaintext), "re-chain")
        if enc_cycles:
            self._emit("stall", addr, enc_cycles, "write")
        if self.reorder:
            # The re-enciphered tail scatters across the region: the whole
            # stored region crosses the bus again.
            cycles += port.write(base, new_stored)
        else:
            # Only the modified tail actually crosses the bus again.
            cycles += port.write(base + tail_start, new_stored[tail_start:])
            if self.functional:
                # Keep the untouched prefix consistent in the store.
                port.memory.load_image(base, new_stored[:tail_start])
        if self.functional:
            self._tags[base] = hmac_sha256(self._mac_key, new_stored)
        self._verified.discard(base)
        self._chain_state.pop(base, None)
        if self.authenticate:
            cycles += self.hash_latency
        return cycles

    def write_partial(self, port: MemoryPort, addr: int, data: bytes,
                      line_size: int) -> int:
        # Any write re-chains the tail; delegate to write_line semantics on
        # the enclosing line for accounting simplicity.
        self.stats.rmw_operations += 1
        self._emit("rmw", addr, line_size)
        line_base = addr - addr % line_size
        ciphertext_line, _ = self.fill_line(port, line_base, line_size)
        patched = bytearray(ciphertext_line)
        patched[addr - line_base: addr - line_base + len(data)] = data
        return self.write_line(port, line_base, bytes(patched))

    # -- verification API ----------------------------------------------------------

    def verify_region(self, memory, base: int) -> bool:
        """Recheck one region's tag against memory contents (test hook)."""
        ciphertext = memory.dump(base, self.region_size)
        tag = self._tags.get(base)
        if tag is None:
            return False
        return self.verify_line(
            base, self.region_size, verify_hmac(self._mac_key, ciphertext, tag)
        )

    def read_plain(self, memory, addr: int, nbytes: int) -> bytes:
        """Decrypt arbitrary installed bytes (verification helper)."""
        out = bytearray()
        first = self._region_base(addr)
        last = self._region_base(addr + nbytes - 1)
        for base in range(first, last + self.region_size, self.region_size):
            stored = memory.dump(base, self.region_size)
            out += self._decrypt_region(
                base, self._unpermute_load(base, stored)
            )
        offset = addr - first
        return bytes(out[offset: offset + nbytes])

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("tdes_pipelined")
        if self.authenticate:
            est.add_block("hmac_sha256")
        est.add_block("control_overhead")
        return est
