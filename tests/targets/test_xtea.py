"""Tests for the XTEA cipher and the encrypted-archive path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.injection.instrument import GoldenHarness
from repro.targets.sevenzip import SevenZipTarget
from repro.targets.sevenzip.xtea import (
    xtea_ctr,
    xtea_decrypt_block,
    xtea_encrypt_block,
)

KEY = bytes(range(16))


class TestXteaBlock:
    def test_published_test_vector(self):
        # Standard XTEA vector: all-zero key and plaintext encrypts to
        # words (0xDEE9D4D8, 0xF7131ED9); our blocks serialise words
        # little-endian.
        key = bytes(16)
        plain = bytes(8)
        cipher = xtea_encrypt_block(plain, key)
        assert cipher.hex() == "d8d4e9ded91e13f7"

    def test_second_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plain = bytes.fromhex("4142434445464748")
        cipher = xtea_encrypt_block(plain, key)
        assert xtea_decrypt_block(cipher, key) == plain

    def test_encrypt_changes_data(self):
        assert xtea_encrypt_block(b"12345678", KEY) != b"12345678"

    def test_block_size_checked(self):
        with pytest.raises(ValueError):
            xtea_encrypt_block(b"short", KEY)
        with pytest.raises(ValueError):
            xtea_decrypt_block(b"short", KEY)

    def test_key_size_checked(self):
        with pytest.raises(ValueError):
            xtea_encrypt_block(bytes(8), b"tiny")

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=16, max_size=16))
    @settings(deadline=None, max_examples=50)
    def test_roundtrip_property(self, block, key):
        assert xtea_decrypt_block(xtea_encrypt_block(block, key), key) == block


class TestCtrMode:
    def test_self_inverse(self):
        data = b"the quick brown fox jumps over the lazy dog"
        cipher = xtea_ctr(data, KEY, nonce=7)
        assert cipher != data
        assert xtea_ctr(cipher, KEY, nonce=7) == data

    def test_nonce_matters(self):
        data = bytes(32)
        assert xtea_ctr(data, KEY, nonce=0) != xtea_ctr(data, KEY, nonce=1)

    def test_partial_final_block(self):
        data = b"12345"  # not a multiple of 8
        assert xtea_ctr(xtea_ctr(data, KEY), KEY) == data

    def test_empty(self):
        assert xtea_ctr(b"", KEY) == b""

    @given(st.binary(max_size=200), st.integers(0, 2**32))
    @settings(deadline=None, max_examples=50)
    def test_ctr_roundtrip_property(self, data, nonce):
        assert xtea_ctr(xtea_ctr(data, KEY, nonce), KEY, nonce) == data


class TestEncryptedArchiver:
    def test_encrypted_roundtrip_lossless(self):
        target = SevenZipTarget(n_files=5, min_size=40, max_size=90,
                                encrypt=True)
        import zlib

        out = target.run(0, GoldenHarness())
        files = target._make_files(0)
        assert out[1] == tuple(zlib.crc32(f) for f in files)

    def test_encrypted_archive_differs_from_plain(self):
        plain = SevenZipTarget(n_files=4, min_size=40, max_size=80)
        sealed = SevenZipTarget(n_files=4, min_size=40, max_size=80,
                                encrypt=True)
        files = plain._make_files(0)
        entry_plain, _ = plain._compress_file(GoldenHarness(), 0, files[0], 0)
        entry_sealed, _ = sealed._compress_file(
            GoldenHarness(), 0, files[0], 0, sealed._key_for(0)
        )
        assert entry_plain["payload"] != entry_sealed["payload"]

    def test_encrypted_target_deterministic(self):
        target = SevenZipTarget(n_files=4, min_size=40, max_size=80,
                                encrypt=True)
        assert target.run(2, GoldenHarness()) == target.run(2, GoldenHarness())

    def test_injection_campaign_on_encrypted_target(self):
        from repro.injection import Campaign, CampaignConfig, Location

        target = SevenZipTarget(n_files=4, min_size=40, max_size=80,
                                encrypt=True)
        config = CampaignConfig(
            module="LDecode",
            injection_location=Location.ENTRY,
            sample_location=Location.ENTRY,
            test_cases=(0, 1),
            injection_times=(1, 2),
            bits={"int32": (0, 8, 16, 31)},
        )
        result = Campaign(target, config).run()
        assert 0 < result.failure_rate < 0.8
