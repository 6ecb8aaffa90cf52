"""The critical signature (paper section 4.2).

The signature is "a hashed bitwise XOR of an IP, virtual address, global
conditional branch history of the last 32 branches, and global criticality
history of the last 32 loads".  Folding address and IP before the XOR
scatters concurrent loads across predictor entries (section 4.3 discusses
why this keeps a 512-entry table sufficient for SPEC-class workloads).

The per-component toggles support the paper's design-choice ablation
("short histories ... the accuracy drops compared to a simple IP-based
prediction").
"""

from __future__ import annotations


def _mix(value: int) -> int:
    """Cheap avalanche mix (xorshift-multiply) over 32 bits."""
    value &= 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 0x7FEB352D) & 0xFFFFFFFF
    value ^= value >> 15
    value = (value * 0x846CA68B) & 0xFFFFFFFF
    value ^= value >> 16
    return value


def critical_signature(ip: int, line_address: int,
                       branch_history: int, criticality_history: int,
                       use_address: bool = True,
                       use_branch_history: bool = True,
                       use_criticality_history: bool = True,
                       width: int = 13,
                       address_granularity_shift: int = 8,
                       branch_history_bits: int = 12,
                       criticality_history_bits: int = 6) -> int:
    """Compute the critical signature as a ``width``-bit value.

    The signature must *generalise*: a prefetch targets an address that has
    usually never been demanded before, so a full-entropy hash of the line
    address would always miss the 512-entry predictor and every prefetch
    would be dropped.  The address therefore enters at page granularity
    (``address_granularity_shift`` line-address bits dropped -- 256 lines,
    16 KiB, per signature region) and the histories enter as short slices;
    this is the constructive aliasing the paper leans on when it argues 512
    entries suffice because same-loop loads correlate (section 4.3).  The
    signature width matches the predictor's index+tag space (128 sets x
    6-bit tag = 2^13) so every distinct signature is representable.
    """
    # The reference definition, at any width: each component XOR-folds
    # to ``width`` bits in its own loop, and the folds go through
    # :func:`_mix`'s arithmetic, inlined.  CLIP itself runs the closed
    # form below (:func:`history_term` and :func:`closed_form_signature`),
    # which the tests check against this.
    mask = (1 << width) - 1
    value = (ip >> 2) & 0xFFFFFFFFFFFFFFFF
    signature = 0
    while value:
        signature ^= value & mask
        value >>= width
    if use_address:
        value = (line_address >> address_granularity_shift) \
            & 0xFFFFFFFFFFFFFFFF
        while value:
            signature ^= value & mask
            value >>= width
    if use_branch_history:
        value = branch_history & ((1 << branch_history_bits) - 1)
        while value:
            signature ^= value & mask
            value >>= width
    if use_criticality_history:
        # Rotate criticality history so it lands on different bits than the
        # branch history instead of cancelling against it.
        value = (criticality_history
                 & ((1 << criticality_history_bits) - 1)) << 5
        while value:
            signature ^= value & mask
            value >>= width
    signature &= 0xFFFFFFFF
    signature ^= signature >> 16
    signature = (signature * 0x7FEB352D) & 0xFFFFFFFF
    signature ^= signature >> 15
    signature = (signature * 0x846CA68B) & 0xFFFFFFFF
    signature ^= signature >> 16
    return signature & mask


# ----------------------------------------------------------------------
# The closed form CLIP runs (default widths: 13-bit signature, 16 KiB
# regions, 12-bit branch and 6-bit criticality slices)
# ----------------------------------------------------------------------
#
# XOR-folding is linear, so the four folds of critical_signature collapse
# into one: fold(ip >> 2) ^ fold(line >> 8) == fold((ip >> 2) ^ (line >>
# 8)), and a 64-bit value folds to 13 bits in one expression.  Both
# history slices are already below 2**13 and fold to themselves; their
# XOR is the one-int history term CLIP snapshots at load dispatch.  What
# enters the mix therefore has 13 bits, so the mix is one index into
# _MIX13.

_MASK64 = (1 << 64) - 1

#: ``_mix(v) & 0x1FFF`` for every 13-bit ``v``; built once at import and
#: shared by every core.
_MIX13 = tuple(_mix(value) & 0x1FFF for value in range(1 << 13))


def signature_masks(use_address: bool, use_branch_history: bool,
                    use_criticality_history: bool) -> tuple[int, int, int]:
    """(address, branch, criticality) masks for the closed form: the
    ``address_mask`` of :func:`closed_form_signature` and the two masks of
    :func:`history_term`, each 0 when its toggle leaves the component
    out of the signature."""
    return (_MASK64 if use_address else 0,
            0xFFF if use_branch_history else 0,
            0x3F if use_criticality_history else 0)


def history_term(branch_history: int, criticality_history: int,
                 branch_mask: int, criticality_mask: int) -> int:
    """The histories' 13-bit share of the signature, given the masks of
    :func:`signature_masks`.  The criticality slice is shifted left by 5
    so it lands on other bits than the branch slice instead of cancelling
    against it."""
    return ((branch_history & branch_mask)
            ^ ((criticality_history & criticality_mask) << 5))


def closed_form_signature(ip: int, line_address: int, history: int,
                          address_mask: int) -> int:
    """:func:`critical_signature` at its default widths, given the
    :func:`history_term` of the histories; ``address_mask`` 0 leaves the
    address out."""
    value = ((ip >> 2) ^ ((line_address >> 8) & address_mask)) & _MASK64
    return _MIX13[(value ^ value >> 13 ^ value >> 26 ^ value >> 39
                  ^ value >> 52 ^ history) & 0x1FFF]
