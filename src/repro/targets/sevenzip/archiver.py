"""The instrumented PZip archiver target (7-Zip analogue).

A test case archives a batch of deterministic pseudo-random files
(LZ77 + canonical Huffman per file) and then recovers every file from
the archive, mirroring the paper's 7Z procedure: "a set of 25 files
were input to the procedure, each of which was compressed to form an
archive and then decompressed in order to recover the original
content".  The observable output is the sequence of archive entry
descriptors plus the CRC of every recovered file; the failure
specification is the golden diff of Section VI-F.

Instrumented modules (probed at entry and exit once per file, so
injection times are measured in files processed, as in the paper):

``FHandle`` -- file/archive handling, invoked per file during
compression.  Entry state: ``file_index``, ``file_size``,
``buf_capacity``, ``checksum_acc``, ``n_files``, ``arch_offset``.
Exit state: ``stored_size``, ``token_len``, ``checksum``,
``arch_offset``, ``ratio``.  ``file_size`` and ``arch_offset`` are
live (corrupting them corrupts the archive); ``checksum_acc`` is
recomputed inside the module and ``buf_capacity`` only matters when it
drops below the file size, so both are resilient -- the mix of live
and resilient variables produces the class imbalance fault injection
data exhibits.

``LDecode`` -- LZ77/Huffman decoding, invoked per file during
recovery.  Entry state: ``file_index``, ``token_len``, ``total_bits``,
``expected_size``, ``crc_expected``.  Exit state: ``out_len``, ``crc``,
``ok``.
"""

from __future__ import annotations

import random
import zlib

from repro.injection.instrument import Harness, Location, VariableSpec
from repro.targets.base import TargetSystem
from repro.targets.sevenzip.huffman import huffman_decode, huffman_encode
from repro.targets.sevenzip.lz77 import lz77_compress, lz77_decompress

__all__ = ["SevenZipTarget"]

# Hard bounds that keep corrupted control variables from exhausting
# memory; chosen far above anything a legitimate run produces.
_MAX_DECODE_BYTES = 1 << 20


def _clamp_int(value: object, lo: int, hi: int) -> int:
    try:
        v = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        return lo
    return max(lo, min(hi, v))


class _ArchiveState:
    """One archive-then-recover run between two files.

    ``archive`` fills one entry per compressed file, then ``recovered``
    one payload per decompressed file; the input ``files`` and the
    encryption ``key`` are immutable bytes.
    """

    def __init__(self, files: list[bytes], key: bytes | None) -> None:
        self.files = files
        self.key = key
        self.arch_offset = 0
        self.archive: list[dict] = []
        self.recovered: list[bytes] = []


class SevenZipTarget(TargetSystem):
    """PZip archiver with instrumented ``FHandle`` and ``LDecode``.

    Parameters
    ----------
    n_files:
        Files per test case (paper: 25).
    min_size / max_size:
        File size range in bytes; contents are compressible
        pseudo-random text, deterministic per (test case, file index).
    encrypt:
        Enable the XTEA-CTR encryption stage (the real 7-Zip also
        encrypts; disabled by default so the Table II campaigns match
        the recorded EXPERIMENTS.md numbers).  Encryption keys are
        derived deterministically per test case.
    """

    name = "7Z"

    def __init__(
        self,
        n_files: int = 25,
        min_size: int = 60,
        max_size: int = 240,
        encrypt: bool = False,
    ) -> None:
        if n_files < 1:
            raise ValueError("need at least one file per test case")
        if not 8 <= min_size <= max_size:
            raise ValueError("file sizes must satisfy 8 <= min <= max")
        self.n_files = n_files
        self.min_size = min_size
        self.max_size = max_size
        self.encrypt = encrypt

    def _key_for(self, test_case: int) -> bytes:
        import hashlib

        return hashlib.sha256(f"pzip-key-{test_case}".encode()).digest()[:16]

    # ------------------------------------------------------------------
    # TargetSystem protocol
    # ------------------------------------------------------------------
    @property
    def modules(self) -> tuple[str, ...]:
        return ("FHandle", "LDecode")

    def variables_of(
        self, module: str, location: Location | None = None
    ) -> tuple[VariableSpec, ...]:
        self.check_module(module)
        if module == "FHandle":
            entry = (
                VariableSpec("file_index", "int32"),
                VariableSpec("file_size", "int32"),
                VariableSpec("buf_capacity", "int32"),
                VariableSpec("checksum_acc", "int32"),
                VariableSpec("n_files", "int32"),
                VariableSpec("arch_offset", "int32"),
            )
            exit_only = (
                VariableSpec("stored_size", "int32"),
                VariableSpec("token_len", "int32"),
                VariableSpec("checksum", "int32"),
                VariableSpec("ratio", "float64"),
            )
        else:
            entry = (
                VariableSpec("file_index", "int32"),
                VariableSpec("token_len", "int32"),
                VariableSpec("total_bits", "int32"),
                VariableSpec("expected_size", "int32"),
                VariableSpec("crc_expected", "int32"),
            )
            exit_only = (
                VariableSpec("out_len", "int32"),
                VariableSpec("crc", "int32"),
                VariableSpec("ok", "bool"),
            )
        if location is Location.ENTRY:
            return entry
        return entry + exit_only

    def module_sources(self, module: str) -> tuple | None:
        # Both instrumented modules execute the whole pipeline
        # (compress feeds decode through the archive), so the closure
        # is conservatively the entire package: any edit invalidates
        # both modules' stored shards rather than risking a stale hit.
        self.check_module(module)
        from repro.targets.sevenzip import huffman, lz77, xtea
        import repro.targets.sevenzip.archiver as archiver

        return (archiver, lz77, huffman, xtea)

    def start(self, test_case: int) -> _ArchiveState:
        key = self._key_for(test_case) if self.encrypt else None
        return _ArchiveState(self._make_files(test_case), key)

    def advance(self, state: _ArchiveState, harness: Harness) -> bool:
        """Compress the next file, or once all are archived, recover
        the next one."""
        n_archived = len(state.archive)
        if n_archived < len(state.files):
            entry, state.arch_offset = self._compress_file(
                harness,
                n_archived,
                state.files[n_archived],
                state.arch_offset,
                state.key,
            )
            state.archive.append(entry)
            return True
        n_recovered = len(state.recovered)
        if n_recovered < n_archived:
            state.recovered.append(
                self._decompress_file(
                    harness, n_recovered, state.archive[n_recovered], state.key
                )
            )
            return True
        return False

    def finish(self, state: _ArchiveState) -> object:
        # The observable archive descriptor: sizes and offsets (what an
        # external diff of the archive's file listing sees).  checksum
        # and token_len stay internal to the archive: corrupting them
        # only violates the spec if the *decode* then produces
        # different content -- the software's inherent resilience the
        # paper notes.
        entries = tuple((e["stored_size"], e["offset"]) for e in state.archive)
        digests = tuple(zlib.crc32(data) for data in state.recovered)
        return (entries, digests)

    def is_failure(self, golden_output: object, run_output: object) -> bool:
        return golden_output != run_output

    # ------------------------------------------------------------------
    # Workload generation
    # ------------------------------------------------------------------
    def _make_files(self, test_case: int) -> list[bytes]:
        rng = random.Random(0xA11CE ^ (test_case * 2654435761))
        words = [
            bytes(rng.choices(range(97, 123), k=rng.randint(3, 8)))
            for _ in range(12)
        ]
        files = []
        for _ in range(self.n_files):
            size = rng.randint(self.min_size, self.max_size)
            buf = bytearray()
            while len(buf) < size:
                buf += rng.choice(words) + b" "
            files.append(bytes(buf[:size]))
        return files

    # ------------------------------------------------------------------
    # Compression path (FHandle)
    # ------------------------------------------------------------------
    def _compress_file(
        self,
        harness: Harness,
        file_index: int,
        data: bytes,
        arch_offset: int,
        key: bytes | None = None,
    ) -> tuple[dict, int]:
        """Archive one file: its entry and the next archive offset."""
        state = harness.probe(
            "FHandle",
            Location.ENTRY,
            {
                "file_index": file_index,
                "file_size": len(data),
                "buf_capacity": self.max_size,
                "checksum_acc": 0,
                "n_files": self.n_files,
                "arch_offset": arch_offset,
            },
        )
        # Live control variables read back from the (possibly
        # corrupted) probe state.
        file_size = _clamp_int(state["file_size"], 0, len(data))
        buf_capacity = _clamp_int(state["buf_capacity"], 0, 1 << 30)
        arch_offset = _clamp_int(state["arch_offset"], -(1 << 30), 1 << 30)
        # A buffer smaller than the file truncates the input, as a
        # fixed-size C buffer would.
        usable = min(file_size, buf_capacity)
        payload_in = data[:usable]
        # checksum_acc is a scratch accumulator: recomputed from
        # scratch here, so entry corruption of it is absorbed.
        checksum = zlib.crc32(payload_in) & 0x7FFFFFFF
        tokens = lz77_compress(payload_in)
        lengths, payload, total_bits = huffman_encode(tokens)
        if key is not None:
            from repro.targets.sevenzip.xtea import xtea_ctr

            payload = xtea_ctr(payload, key, nonce=file_index << 32)
        ratio = len(payload) / len(payload_in) if payload_in else 1.0

        exit_state = harness.probe(
            "FHandle",
            Location.EXIT,
            {
                "file_index": file_index,
                "file_size": usable,
                "buf_capacity": buf_capacity,
                "checksum_acc": checksum,
                "n_files": self.n_files,
                "arch_offset": arch_offset,
                "stored_size": len(payload_in),
                "token_len": len(tokens),
                "checksum": checksum,
                "ratio": ratio,
            },
        )
        stored_size = _clamp_int(exit_state["stored_size"], 0, 1 << 30)
        token_len = _clamp_int(exit_state["token_len"], 0, 1 << 30)
        entry_checksum = _clamp_int(
            exit_state["checksum"], -(1 << 31), (1 << 31) - 1
        )
        arch_offset = _clamp_int(
            exit_state["arch_offset"], -(1 << 30), 1 << 30
        )
        entry = {
            "stored_size": stored_size,
            "token_len": token_len,
            "checksum": entry_checksum,
            "offset": arch_offset,
            "lengths": lengths,
            "payload": payload,
            "total_bits": total_bits,
        }
        return entry, arch_offset + len(payload)

    # ------------------------------------------------------------------
    # Decompression path (LDecode)
    # ------------------------------------------------------------------
    def _decompress_file(
        self, harness: Harness, file_index: int, entry: dict, key: bytes | None = None
    ) -> bytes:
        """Recover one archived file."""
        state = harness.probe(
            "LDecode",
            Location.ENTRY,
            {
                "file_index": file_index,
                "token_len": entry["token_len"],
                "total_bits": entry["total_bits"],
                "expected_size": entry["stored_size"],
                "crc_expected": entry["checksum"],
            },
        )
        token_len = _clamp_int(state["token_len"], 0, _MAX_DECODE_BYTES)
        total_bits = _clamp_int(state["total_bits"], 0, 8 * len(entry["payload"]))
        expected_size = _clamp_int(
            state["expected_size"], 0, _MAX_DECODE_BYTES
        )
        crc_expected = _clamp_int(
            state["crc_expected"], -(1 << 31), (1 << 31) - 1
        )

        payload = entry["payload"]
        if key is not None:
            from repro.targets.sevenzip.xtea import xtea_ctr

            payload = xtea_ctr(payload, key, nonce=file_index << 32)
        tokens = huffman_decode(
            entry["lengths"], payload, total_bits, token_len
        )
        data = lz77_decompress(tokens, expected_size)
        crc = zlib.crc32(data) & 0x7FFFFFFF
        ok = crc == crc_expected

        exit_state = harness.probe(
            "LDecode",
            Location.EXIT,
            {
                "file_index": file_index,
                "token_len": token_len,
                "total_bits": total_bits,
                "expected_size": expected_size,
                "crc_expected": crc_expected,
                "out_len": len(data),
                "crc": crc,
                "ok": ok,
            },
        )
        out_len = _clamp_int(exit_state["out_len"], 0, len(data))
        # crc / ok are diagnostics: consumed by logging only, so
        # corrupting them at exit does not violate the failure spec.
        return data[:out_len]
