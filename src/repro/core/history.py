"""Global history shift registers.

CLIP keeps two 32-bit global histories per core (Table 2): the outcomes of
the last 32 conditional branches and the criticality of the last 32 loads.
Both feed the critical signature (section 4.2).
"""

from __future__ import annotations


class ShiftRegister:
    """A fixed-width bit history; newest bit in the LSB."""

    __slots__ = ("bits", "_mask", "value")

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ValueError("history must be at least one bit wide")
        self.bits = bits
        self._mask = (1 << bits) - 1
        self.value = 0

    def push(self, bit: bool) -> None:
        self.value = ((self.value << 1) | bit) & self._mask

    def clear(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShiftRegister(bits={self.bits}, value={self.value:#x})"
