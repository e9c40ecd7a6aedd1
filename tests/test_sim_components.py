"""Memory, bus, pipeline timing and area estimation."""

import os

import pytest

from repro.sim import (
    GATES,
    AreaEstimate,
    Bus,
    MainMemory,
    MemoryConfig,
    PipelinedUnit,
    TDES_ITERATIVE,
    XOM_AES_PIPE,
    combine,
    sram_gates,
)


class TestMemoryConfig:
    def test_beats(self):
        cfg = MemoryConfig(bus_width=8)
        assert cfg.beats(32) == 4
        assert cfg.beats(33) == 5
        assert cfg.beats(1) == 1

    def test_read_cycles(self):
        cfg = MemoryConfig(latency=40, bus_width=8, cycles_per_beat=1)
        assert cfg.read_cycles(32) == 44

    def test_slow_bus(self):
        cfg = MemoryConfig(latency=10, bus_width=4, cycles_per_beat=2)
        assert cfg.read_cycles(32) == 10 + 8 * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(size=0)
        with pytest.raises(ValueError):
            MemoryConfig(latency=-1)
        with pytest.raises(ValueError):
            MemoryConfig(bus_width=0)


class TestMainMemory:
    def test_read_write(self):
        mem = MainMemory(MemoryConfig(size=1024))
        mem.write(10, b"hello")
        assert mem.read(10, 5) == b"hello"

    def test_initially_zero(self):
        mem = MainMemory(MemoryConfig(size=64))
        assert mem.read(0, 64) == bytes(64)

    def test_bounds_checked(self):
        mem = MainMemory(MemoryConfig(size=64))
        with pytest.raises(IndexError):
            mem.read(60, 8)
        with pytest.raises(IndexError):
            mem.write(-1, b"x")

    def test_counters(self):
        mem = MainMemory(MemoryConfig(size=64))
        mem.write(0, b"abcd")
        mem.read(0, 4)
        assert mem.reads == 1 and mem.writes == 1
        assert mem.bytes_read == 4 and mem.bytes_written == 4

    def test_load_and_dump_skip_counters(self):
        mem = MainMemory(MemoryConfig(size=64))
        mem.load_image(0, b"firmware")
        assert mem.dump(0, 8) == b"firmware"
        assert mem.reads == 0 and mem.writes == 0


class TestMainMemoryBacking:
    """The zero-page backing behaves exactly like a zeroed byte array."""

    SIZE = MemoryConfig().size          # the default 4 MiB
    PAGE = 4096

    def test_untouched_reads_are_zero_through_the_last_byte(self):
        mem = MainMemory()
        mem.write(self.PAGE * 7, b"\xff")
        assert mem.read(self.SIZE - 1, 1) == b"\x00"
        assert mem.read(self.SIZE - self.PAGE, self.PAGE) == bytes(self.PAGE)
        assert mem.dump(0, self.PAGE * 7) == bytes(self.PAGE * 7)
        assert type(mem.read(0, 4)) is bytes
        assert type(mem.dump(0, 4)) is bytes

    def test_round_trip_across_a_page_boundary(self):
        mem = MainMemory()
        data = bytes(range(256)) * 2
        addr = 3 * self.PAGE - 100
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data
        assert mem.dump(3 * self.PAGE, 4) == data[100:104]
        assert mem.read(addr - 1, 1) == b"\x00"
        assert mem.read(addr + len(data), 1) == b"\x00"

    def test_whole_memory_dump_and_load_round_trip(self):
        # The replay fault's path: snapshot everything, diverge, restore.
        mem = MainMemory()
        image = bytes(range(251)) * (self.SIZE // 251) + bytes(self.SIZE % 251)
        mem.load_image(0, image)
        snapshot = mem.dump(0, self.SIZE)
        assert snapshot == image
        mem.write(self.SIZE - 8, b"modified")
        mem.write(0, b"modified")
        mem.load_image(0, snapshot)
        assert mem.dump(0, self.SIZE) == image

    def test_out_of_range_raises_index_error(self):
        mem = MainMemory()
        for call in (lambda: mem.read(self.SIZE - 1, 2),
                     lambda: mem.read(self.SIZE, 1),
                     lambda: mem.write(self.SIZE - 3, b"four"),
                     lambda: mem.write(-4, b"four"),
                     lambda: mem.load_image(self.SIZE, b"x"),
                     lambda: mem.dump(-1, 2)):
            with pytest.raises(IndexError):
                call()
        assert mem.read(self.SIZE - 4, 4) == bytes(4)

    def test_interposer_rewrites_reads_and_writes(self):
        mem = MainMemory()
        seen = []

        def flip(op, addr, data):
            seen.append((op, addr, bytes(data)))
            return bytes(b ^ 0xFF for b in data)

        mem.attach_interposer(flip)
        mem.write(self.PAGE - 2, b"\x00\x01\x02\x03")
        assert mem.dump(self.PAGE - 2, 4) == b"\xff\xfe\xfd\xfc"
        assert mem.read(self.PAGE - 2, 4) == b"\x00\x01\x02\x03"
        mem.detach_interposer(flip)
        assert mem.read(self.PAGE - 2, 4) == b"\xff\xfe\xfd\xfc"
        assert seen == [("write", self.PAGE - 2, b"\x00\x01\x02\x03"),
                        ("read", self.PAGE - 2, b"\xff\xfe\xfd\xfc")]
        assert mem.reads == 2 and mem.writes == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_writes_stay_in_the_child(self):
        # Campaign workers fork: the backing must be private, not shared.
        mem = MainMemory()
        mem.write(0, b"parent")
        pid = os.fork()
        if pid == 0:
            mem.write(0, b"child!")
            os._exit(0 if mem.read(0, 6) == b"child!" else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        assert mem.read(0, 6) == b"parent"


class TestBus:
    def test_probe_notification(self):
        bus = Bus()
        seen = []
        bus.attach_probe(seen.append)
        bus.transfer("read", 0x40, b"\xde\xad", cycle=7)
        assert len(seen) == 1
        assert seen[0].addr == 0x40 and seen[0].data == b"\xde\xad"
        assert seen[0].cycle == 7 and seen[0].op == "read"

    def test_detach(self):
        bus = Bus()
        seen = []
        bus.attach_probe(seen.append)
        bus.detach_probe(seen.append)
        bus.transfer("write", 0, b"x", 0)
        assert not seen

    def test_stats(self):
        bus = Bus()
        bus.transfer("read", 0, b"1234", 0)
        bus.transfer("write", 4, b"56", 0)
        assert bus.transactions == 2
        assert bus.bytes_transferred == 6

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            Bus().transfer("steal", 0, b"", 0)


class TestPipelinedUnit:
    def test_time_for(self):
        unit = PipelinedUnit("u", latency=14, initiation_interval=1)
        assert unit.time_for(1) == 14
        assert unit.time_for(4) == 17
        assert unit.time_for(0) == 0

    def test_iterative_unit(self):
        unit = PipelinedUnit("u", latency=16, initiation_interval=16)
        assert unit.time_for(4) == 16 * 4

    def test_drain_pipelined_keeps_up(self):
        """Fully pipelined unit behind 1-cycle arrivals: just the latency."""
        assert XOM_AES_PIPE.drain_after_arrivals(8, arrival_interval=2) == 14

    def test_drain_backlog(self):
        """Iterative 3DES behind fast arrivals accumulates a backlog."""
        drain = TDES_ITERATIVE.drain_after_arrivals(4, arrival_interval=1)
        assert drain == 48 + 3 * 47

    def test_throughput(self):
        assert XOM_AES_PIPE.throughput_blocks_per_cycle == 1.0
        assert TDES_ITERATIVE.throughput_blocks_per_cycle == pytest.approx(1 / 48)

    def test_xom_published_figures(self):
        """The survey's quoted numbers: 14-cycle latency, 1 block/cycle."""
        assert XOM_AES_PIPE.latency == 14
        assert XOM_AES_PIPE.initiation_interval == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelinedUnit("u", latency=-1)
        with pytest.raises(ValueError):
            PipelinedUnit("u", latency=1, initiation_interval=0)


class TestArea:
    def test_add_block(self):
        est = AreaEstimate("test").add_block("des_iterative")
        assert est.total == GATES["des_iterative"]

    def test_add_block_count(self):
        est = AreaEstimate("test").add_block("byte_sbox", 4)
        assert est.total == 4 * GATES["byte_sbox"]

    def test_unknown_block(self):
        with pytest.raises(KeyError):
            AreaEstimate("test").add_block("warp_drive")

    def test_sram_scaling(self):
        assert sram_gates(1024) == 2 * sram_gates(512)
        assert sram_gates(0) == 0
        with pytest.raises(ValueError):
            sram_gates(-1)

    def test_combine(self):
        a = AreaEstimate("a").add("x", 100)
        b = AreaEstimate("b").add("y", 50)
        merged = combine("ab", a, b)
        assert merged.total == 150

    def test_str_renders(self):
        est = AreaEstimate("engine").add_block("aes_pipelined")
        text = str(est)
        assert "engine" in text and "aes_pipelined" in text

    def test_aegis_reported_figure(self):
        """The 300k-gate pipelined AES from [14] is the calibration point."""
        assert GATES["aes_pipelined"] == 300_000
