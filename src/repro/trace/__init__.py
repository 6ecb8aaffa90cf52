"""Trace substrate: instruction records, synthetic workloads, and mixes.

The paper drives ChampSim with SimPoint traces from SPEC CPU2017, GAP,
CloudSuite and CVP.  Those traces are not redistributable, so this package
synthesises instruction streams from per-workload parameter models whose
memory behaviour (footprint, pattern mix, branch behaviour, dependency
structure) matches the qualitative character of each named benchmark.  See
DESIGN.md section 2 for the substitution rationale.
"""

from repro.trace.record import Op, TraceRecord
from repro.trace.synthetic import SyntheticWorkload, WorkloadSpec, StreamSpec
from repro.trace.workloads import (
    CLOUDSUITE_WORKLOADS,
    CVP_WORKLOADS,
    GAP_WORKLOADS,
    SPEC_HOMOGENEOUS_MIXES,
    get_workload,
    workload_names,
)
from repro.trace.analysis import (IpProfile, WorkloadProfile,
                                  format_profile, profile_trace)
from repro.trace.mixes import heterogeneous_mixes, homogeneous_mix

__all__ = [
    "Op",
    "TraceRecord",
    "SyntheticWorkload",
    "WorkloadSpec",
    "StreamSpec",
    "SPEC_HOMOGENEOUS_MIXES",
    "GAP_WORKLOADS",
    "CLOUDSUITE_WORKLOADS",
    "CVP_WORKLOADS",
    "get_workload",
    "workload_names",
    "homogeneous_mix",
    "heterogeneous_mixes",
    "IpProfile",
    "WorkloadProfile",
    "format_profile",
    "profile_trace",
]
