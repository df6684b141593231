"""The transient data value fault model: single bit flips.

Section III-B: "We assume a transient data value fault model, which
occurs when internal variables of a system hold erroneous values.  The
transient fault model is generally used to model hardware faults in
which bit flips occur in memory areas".

Variables come in three machine representations, declared per variable
by :class:`repro.injection.instrument.VariableSpec`:

* ``float64`` -- IEEE-754 double precision, 64 flippable bits (flips in
  the exponent produce the huge magnitudes that make fault-injection
  data so skewed; flips in the sign/mantissa produce subtle errors);
* ``int32`` / ``int64`` -- two's complement, 32/64 flippable bits
  (Python ints are unbounded, so targets declare the C-like width their
  variable would occupy and values wrap accordingly);
* ``bool`` -- a single flippable bit.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

__all__ = [
    "BitFlip",
    "FaultModelError",
    "bit_width",
    "flip_bit",
    "flip_bits_batch",
]


class FaultModelError(ValueError):
    """Raised for invalid bit positions or unsupported variable kinds."""


_WIDTHS = {"float64": 64, "int64": 64, "int32": 32, "bool": 1}


def bit_width(kind: str) -> int:
    """Number of flippable bits for a variable kind."""
    try:
        return _WIDTHS[kind]
    except KeyError:
        raise FaultModelError(f"unsupported variable kind {kind!r}") from None


def flip_bit(value: float | int | bool, kind: str, bit: int) -> float | int | bool:
    """Return ``value`` with bit ``bit`` of its representation flipped.

    Bit 0 is the least significant bit of the representation; for
    ``float64`` bit 63 is the sign bit and bits 52-62 the exponent.
    """
    width = bit_width(kind)
    if not 0 <= bit < width:
        raise FaultModelError(f"bit {bit} out of range for {kind} (width {width})")
    if kind == "bool":
        return not bool(value)
    if kind == "float64":
        (bits,) = struct.unpack("<Q", struct.pack("<d", float(value)))
        bits ^= 1 << bit
        (flipped,) = struct.unpack("<d", struct.pack("<Q", bits))
        return flipped
    # Two's complement integer of the declared width.
    mask = (1 << width) - 1
    bits = int(value) & mask
    bits ^= 1 << bit
    if bits >= 1 << (width - 1):
        bits -= 1 << width
    return bits


def _pack(values, kind: str) -> np.ndarray:
    """Unsigned bit-pattern view of ``values`` for XOR flipping."""
    if kind == "float64":
        return np.asarray(values, dtype=np.float64).view(np.uint64).copy()
    width = bit_width(kind)
    mask = (1 << width) - 1
    # Python ints are unbounded, so wrap into the declared width before
    # entering the fixed-width array (object dtype keeps exact values).
    packed = [int(v) & mask for v in np.asarray(values, dtype=object).ravel()]
    return np.asarray(packed, dtype=np.uint64)


def _unpack(bits: np.ndarray, kind: str) -> list:
    """Inverse of :func:`_pack`: Python values with exact semantics."""
    if kind == "float64":
        return [float(v) for v in bits.view(np.float64)]
    width = bit_width(kind)
    sign = 1 << (width - 1)
    out = []
    for raw in bits.tolist():
        out.append(raw - (1 << width) if raw >= sign else raw)
    return out


def flip_bits_batch(value: float | int | bool, kind: str, bits) -> list:
    """``[flip_bit(value, kind, b) for b in bits]`` as one packed XOR.

    Static prune classification flips one golden value at every bit
    position: instead of one struct pack/unpack per bit, the value's
    bit pattern is packed once and every requested position is flipped
    by a single vectorized XOR over a uint64 view.
    Bit-identical to :func:`flip_bit` for every kind, including NaN
    payloads, signed zeros and two's-complement wrap.
    """
    positions = np.asarray(list(bits), dtype=np.int64)
    if positions.size == 0:
        return []
    width = bit_width(kind)
    if int(positions.min()) < 0 or int(positions.max()) >= width:
        bad = next(b for b in positions.tolist() if not 0 <= b < width)
        raise FaultModelError(
            f"bit {bad} out of range for {kind} (width {width})"
        )
    if kind == "bool":
        return [not bool(value)] * len(positions)
    packed = _pack([value], kind)[0]
    flipped = packed ^ (np.uint64(1) << positions.astype(np.uint64))
    return _unpack(flipped, kind)


@dataclasses.dataclass(frozen=True)
class BitFlip:
    """A single injection: flip ``bit`` of ``variable`` of kind ``kind``."""

    variable: str
    kind: str
    bit: int

    def __post_init__(self) -> None:
        if not 0 <= self.bit < bit_width(self.kind):
            raise FaultModelError(
                f"bit {self.bit} out of range for kind {self.kind!r}"
            )

    def apply(self, value: float | int | bool) -> float | int | bool:
        return flip_bit(value, self.kind, self.bit)

    def __str__(self) -> str:
        return f"{self.variable}[{self.kind}]^bit{self.bit}"
