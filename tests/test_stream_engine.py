"""Stream/pad-ahead engine: versioning, pad cache, and the two-time-pad
design-mistake demonstration."""

import pytest

from repro.analysis import pad_reuse_leak
from repro.core import StreamCipherEngine
from repro.core.engine import MemoryPort
from repro.sim import Bus, MainMemory, MemoryConfig

KEY = b"0123456789abcdef"


def make_port(size=1 << 16):
    return MemoryPort(MainMemory(MemoryConfig(size=size)), Bus())


class TestVersioning:
    def test_rewrite_changes_ciphertext(self):
        """Fresh version per write: same plaintext, new ciphertext — the
        leak AEGIS's IVs also close."""
        engine = StreamCipherEngine(KEY, line_size=32)
        line = b"\x42" * 32
        first = engine.encrypt_line(0, line)
        second = engine.encrypt_line(0, line)
        assert first != second

    def test_decrypt_tracks_latest_version(self):
        engine = StreamCipherEngine(KEY, line_size=32)
        line = bytes(range(32))
        engine.encrypt_line(0, b"old " * 8)
        ct = engine.encrypt_line(0, line)
        assert engine.decrypt_line(0, ct) == line

    def test_version_bump_invalidates_pad_cache(self):
        engine = StreamCipherEngine(KEY, line_size=32, pad_ahead_depth=1)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(64))
        engine.fill_line(port, 0, 32)            # pad-ahead caches line 32
        assert 32 in engine._pad_cache
        engine.write_line(port, 32, bytes(32))   # version bump
        assert 32 not in engine._pad_cache


class TestPadCache:
    def test_pad_ahead_populates(self):
        engine = StreamCipherEngine(KEY, line_size=32, pad_ahead_depth=3)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(256))
        engine.fill_line(port, 0, 32)
        assert {32, 64, 96} <= set(engine._pad_cache)

    def test_cache_capacity_bounded(self):
        engine = StreamCipherEngine(KEY, line_size=32, pad_cache_lines=4,
                                    pad_ahead_depth=4)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(4096))
        for addr in range(0, 2048, 32):
            engine.fill_line(port, addr, 32)
        assert len(engine._pad_cache) <= 4

    def test_hit_vs_miss_stats(self):
        engine = StreamCipherEngine(KEY, line_size=32, pad_ahead_depth=1)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(128))
        engine.fill_line(port, 0, 32)    # miss
        engine.fill_line(port, 32, 32)   # pad-ahead hit
        assert engine.stats.pad_misses == 1
        assert engine.stats.pad_hits == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StreamCipherEngine(KEY, pad_cache_lines=0)

    def test_pad_ahead_computes_no_keystream(self):
        """Pad-ahead only records line addresses: a one-line functional
        fill makes one kernel call (its own decrypt pad), not one per
        pad-ahead line too."""
        engine = StreamCipherEngine(KEY, line_size=32, pad_ahead_depth=2)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(range(128)))

        class Spy:
            def __init__(self, kernel):
                self.kernel = kernel
                self.calls = 0

            def encrypt_blocks(self, data):
                self.calls += 1
                return self.kernel.encrypt_blocks(data)

        engine._aes = spy = Spy(engine._aes)
        assert engine.fill_line(port, 0, 32)[0] == bytes(range(32))
        assert spy.calls == 1
        assert {32, 64} <= set(engine._pad_cache)


class TestPartialWrites:
    def test_secure_partial_write_rmws_whole_line(self):
        engine = StreamCipherEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(range(32)) * 2)
        engine.write_partial(port, 4, b"\xAB\xCD", 32)
        assert engine.stats.rmw_operations == 1
        plain = engine.decrypt_line(0, port.memory.dump(0, 32))
        assert plain[4:6] == b"\xAB\xCD"
        assert plain[:4] == bytes(range(4))       # untouched bytes survive

    def test_insecure_shortcut_skips_rmw(self):
        engine = StreamCipherEngine(KEY, line_size=32,
                                    reuse_pad_on_partial_write=True)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(64))
        engine.write_partial(port, 4, b"\xAB\xCD", 32)
        assert engine.stats.rmw_operations == 0

    def test_two_time_pad_leak_of_insecure_shortcut(self):
        """The measurable mistake: rewriting bytes under the same pad leaks
        their XOR to a bus observer."""
        engine = StreamCipherEngine(KEY, line_size=32,
                                    reuse_pad_on_partial_write=True)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(64))
        secret_a = b"\x11\x22\x33\x44"
        secret_b = b"\x55\x66\x77\x88"
        engine.write_partial(port, 0, secret_a, 32)
        ct_a = port.memory.dump(0, 4)
        engine.write_partial(port, 0, secret_b, 32)
        ct_b = port.memory.dump(0, 4)
        # Attacker with one known plaintext recovers the other exactly.
        recovered = pad_reuse_leak(ct_a, ct_b, known_plaintext_a=secret_a)
        assert recovered == secret_b

    def test_secure_mode_closes_the_leak(self):
        engine = StreamCipherEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(64))
        secret_a = b"\x11\x22\x33\x44"
        secret_b = b"\x55\x66\x77\x88"
        engine.write_partial(port, 0, secret_a, 32)
        ct_a = port.memory.dump(0, 4)
        engine.write_partial(port, 0, secret_b, 32)
        ct_b = port.memory.dump(0, 4)
        recovered = pad_reuse_leak(ct_a, ct_b, known_plaintext_a=secret_a)
        assert recovered != secret_b


class TestUnalignedPads:
    def test_pad_slice_consistency(self):
        """The pad for a sub-range equals the slice of the line pad."""
        engine = StreamCipherEngine(KEY, line_size=32)
        whole = engine._pad(0, 32)
        assert engine._pad(5, 10) == whole[5:15]
