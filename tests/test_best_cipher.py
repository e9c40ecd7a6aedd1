"""Best's substitution/transposition cipher: correctness and the
deliberate statistical weakness E06 measures."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_experiment
from repro.attacks import analyze_ciphertext
from repro.core.registry import make_engine
from repro.crypto import BestCipher

GOLDEN = Path(__file__).resolve().parent.parent / "BENCH_quick_metrics.json"


class TestCorrectness:
    def test_roundtrip(self):
        cipher = BestCipher(b"best-key")
        block = b"8 bytes!"
        for addr in (0, 8, 0x1000, 12345 * 8):
            assert cipher.decrypt(addr, cipher.encrypt(addr, block)) == block

    def test_roundtrip_all_rounds(self):
        for rounds in (1, 2, 4):
            cipher = BestCipher(b"best-key", rounds=rounds)
            block = bytes(range(8))
            assert cipher.decrypt(64, cipher.encrypt(64, block)) == block

    def test_roundtrip_wide_block(self):
        cipher = BestCipher(b"best-key", block_size=16)
        block = bytes(range(16))
        assert cipher.decrypt(0, cipher.encrypt(0, block)) == block

    def test_block_cipher_interface(self):
        cipher = BestCipher(b"best-key")
        block = b"ABCDEFGH"
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_wrong_block_size_rejected(self):
        cipher = BestCipher(b"best-key")
        with pytest.raises(ValueError):
            cipher.encrypt(0, b"short")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BestCipher(b"k", block_size=1)
        with pytest.raises(ValueError):
            BestCipher(b"k", num_alphabets=0)
        with pytest.raises(ValueError):
            BestCipher(b"k", rounds=0)


class TestPolyAlphabetic:
    def test_address_dependence(self):
        """The poly-alphabetic schedule: same block, different address,
        different ciphertext."""
        cipher = BestCipher(b"best-key", num_alphabets=16)
        block = b"constant"
        cts = {cipher.encrypt(addr, block) for addr in range(0, 128, 8)}
        assert len(cts) > 1

    def test_alphabet_cycle(self):
        """Addresses congruent mod num_alphabets share the substitution
        schedule — the cipher's periodicity weakness."""
        cipher = BestCipher(b"best-key", num_alphabets=16)
        block = b"constant"
        assert cipher.encrypt(0, block) == cipher.encrypt(16, block)

    def test_mono_alphabetic_with_one_table(self):
        cipher = BestCipher(b"best-key", num_alphabets=1)
        block = b"constant"
        assert cipher.encrypt(0, block) == cipher.encrypt(8, block)


class TestWeakness:
    def test_statistically_weaker_than_random(self):
        """A highly repetitive image keeps visible structure under Best —
        the gap to NIST ciphers the survey calls out (E06)."""
        cipher = BestCipher(b"best-key", num_alphabets=4)
        image = (b"\x00" * 8 + b"\xff" * 8) * 256
        ct = bytearray()
        for i in range(0, len(image), 8):
            ct += cipher.encrypt(i, image[i: i + 8])
        analysis = analyze_ciphertext(bytes(ct), block_size=8)
        # Strong repetition survives: the distinguisher fires.
        assert analysis.block_collision_rate > 0.5

    def test_key_sensitivity(self):
        block = b"constant"
        assert BestCipher(b"key-a").encrypt(0, block) != \
            BestCipher(b"key-b").encrypt(0, block)


class TestAlphabetMemo:
    """The keyed alphabets are derived once per key and shared."""

    def test_engines_share_one_table_object(self):
        first, second = make_engine("best"), make_engine("best")
        assert first.cipher is not second.cipher
        assert first.cipher._sboxes is second.cipher._sboxes
        assert first.cipher._inv_sboxes is second.cipher._inv_sboxes

    def test_different_key_gives_different_tables(self):
        a, b = BestCipher(b"key-a"), BestCipher(b"key-b")
        assert a._sboxes != b._sboxes
        assert a._inv_sboxes != b._inv_sboxes

    def test_tables_are_immutable_tuples(self):
        cipher = BestCipher(b"best-key", num_alphabets=4)
        for tables in (cipher._sboxes, cipher._inv_sboxes):
            assert isinstance(tables, tuple) and len(tables) == 4
            assert all(isinstance(t, tuple) and len(t) == 256
                       for t in tables)

    def test_outputs_match_known_answers(self):
        # Recorded from the per-instance derivation the memo replaced.
        cipher = BestCipher(b"best-key")
        assert cipher.encrypt(0x1000, b"8 bytes!").hex() == "f78f745f952ddb5a"
        wide = BestCipher(b"best-key", block_size=16, num_alphabets=4,
                          rounds=3)
        assert wide.encrypt(12345, bytes(range(16))).hex() == \
            "733ecef53e0a27fdd5b495cc691ae548"
        assert make_engine("best").encrypt_line(64, bytes(range(32))).hex() \
            == ("84b4aef5d5d79dc93452f1a47f52e5ea"
                "9aecd77312318cfdb69f7039c0cf8a96")

    def test_e06_matches_committed_metrics(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        doc = run_experiment("e06", quick=True).to_document()
        expected = golden["experiments"]["e06"]
        assert {key: doc[key] for key in expected} == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 255), addr=st.integers(0, 1 << 16))
def test_best_roundtrip_property(seed, addr):
    cipher = BestCipher(bytes([seed]) + b"-key")
    block = bytes((seed * 7 + i) & 0xFF for i in range(8))
    addr = addr - addr % 8
    assert cipher.decrypt(addr, cipher.encrypt(addr, block)) == block
