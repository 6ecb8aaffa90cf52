"""Instruction trace records.

A :class:`TraceRecord` is the unit the core model consumes.  It carries the
minimum architectural information the paper's mechanisms need:

* instruction pointer (``ip``) -- signature input for every IP-indexed
  structure (prefetchers, criticality filter, branch history);
* operation kind -- load/store/branch/ALU;
* virtual address for memory operations;
* branch outcome (``taken``) -- the simulator is trace-driven, so outcomes
  come from the trace and the branch predictor only decides whether a
  mispredict bubble is charged;
* register dataflow (``dst``/``srcs``) -- drives issue timing (a
  pointer-chasing load cannot issue before the load producing its address
  returns) and the data-dependency graphs used by CATCH and FVP.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Sequence, Tuple


class Op(IntEnum):
    """Instruction operation kinds."""

    LOAD = 0
    STORE = 1
    BRANCH = 2
    ALU = 3


#: Register id meaning "no register".
NO_REG = -1


class TraceRecord:
    """One dynamic instruction.

    ``srcs`` lists the registers the instruction must wait for before it can
    execute; for loads these are the address-generation sources.  ``dst`` is
    the produced register (``NO_REG`` for stores and branches).

    Records are immutable: a generated trace holds one record object per
    distinct instruction and repeats it wherever that instruction recurs
    (see :meth:`repro.trace.synthetic.SyntheticWorkload.generate`), so
    one object stands for every occurrence.  Assigning or deleting a field
    raises ``AttributeError``.
    """

    __slots__ = ("ip", "op", "address", "taken", "dst", "srcs")

    def __init__(self, ip: int, op: Op, address: int = 0,
                 taken: bool = False, dst: int = NO_REG,
                 srcs: Tuple[int, ...] = ()) -> None:
        init = object.__setattr__
        init(self, "ip", ip)
        init(self, "op", op)
        init(self, "address", address)
        init(self, "taken", taken)
        init(self, "dst", dst)
        init(self, "srcs", srcs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TraceRecord is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"TraceRecord is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle would restore the slots through __setattr__.
        return (TraceRecord, (self.ip, self.op, self.address, self.taken,
                              self.dst, self.srcs))

    @property
    def is_memory(self) -> bool:
        return self.op == Op.LOAD or self.op == Op.STORE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord(ip={self.ip:#x}, op={self.op.name}, "
                f"address={self.address:#x}, taken={self.taken}, "
                f"dst={self.dst}, srcs={self.srcs})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.ip == other.ip and self.op == other.op
                and self.address == other.address
                and self.taken == other.taken
                and self.dst == other.dst and self.srcs == other.srcs)

    def __hash__(self) -> int:
        return hash((self.ip, self.op, self.address, self.taken,
                     self.dst, self.srcs))


def validate_trace(records: Sequence[TraceRecord]) -> None:
    """Raise ``ValueError`` if a trace violates basic well-formedness.

    Checks that memory operations carry addresses, branches carry no
    destination register, and every source register was produced earlier in
    the stream (or is a preset register, id < 0 excluded).
    """
    produced = set()
    for index, record in enumerate(records):
        if record.is_memory and record.address == 0:
            raise ValueError(f"record {index}: memory op without address")
        if record.op == Op.BRANCH and record.dst != NO_REG:
            raise ValueError(f"record {index}: branch with destination")
        for src in record.srcs:
            if src != NO_REG and src not in produced:
                raise ValueError(
                    f"record {index}: source r{src} never produced")
        if record.dst != NO_REG:
            produced.add(record.dst)
