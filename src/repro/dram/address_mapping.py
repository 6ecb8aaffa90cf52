"""Physical address to DRAM coordinate mapping.

Cache lines interleave across channels at line granularity (maximising
channel-level parallelism, the common many-core choice), then across banks
at row granularity, so streaming accesses enjoy row-buffer hits while
spreading over every channel.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config import LINE_SHIFT, DramConfig


class DramCoordinates(NamedTuple):
    # A NamedTuple, not a frozen dataclass: locate() runs once per DRAM
    # transaction and tuple construction skips the per-field
    # object.__setattr__ a frozen dataclass pays.
    channel: int
    bank: int
    row: int


class AddressMapping:
    """line address -> (channel, bank, row)."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.lines_per_row = config.row_buffer_bytes >> LINE_SHIFT
        # Geometry is fixed at construction; locate() reads locals, not
        # two levels of attribute indirection.
        self.channels = config.channels
        self.banks = config.banks_per_channel

    def locate(self, line: int) -> DramCoordinates:
        channels = self.channels
        channel = line % channels
        row_chunk = (line // channels) // self.lines_per_row
        row = row_chunk // self.banks
        # XOR bank hashing (all row bits folded into the bank index in
        # 4-bit groups): spreads power-of-two-strided and base-aligned
        # streams across banks, as every modern controller does to avoid
        # bank camping.
        bank = row_chunk
        folded = row
        while folded:
            bank ^= folded
            folded >>= 4
        return DramCoordinates(channel, bank % self.banks, row)
