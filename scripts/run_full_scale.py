#!/usr/bin/env python3
"""Table 3's machine size: 64 cores, 8x8 mesh, eight DDR4-3200 channels.

The benchmark suite runs a scaled system; this script runs Table 3's
cores, mesh and channels for one mix and one scheme comparison,
submitted as one sweep so the three schemes fan out across processes
(``--jobs``) and a repeated invocation is served from the on-disk cache.
The caches and CLIP's windows stay at benchmark scale
(:func:`repro.config.scaled_config`): a 12 KiB L1D, 64 KiB L2 and
128 KiB LLC slice per core and a 128-miss exploration window, where
Table 3 has 48 KiB, 512 KiB, 2 MiB and 1024 misses, because a run of
some 20,000 instructions per core cannot warm Table 3's caches.
Pure-Python cost: a 64-core x 50k-instruction run takes tens of minutes
on one core -- budget accordingly (the paper's 200M-instruction windows
are out of reach without a compiled simulator, see DESIGN.md section 2).

Usage:
    python scripts/run_full_scale.py [workload] [instructions-per-core]
        [--jobs N] [--no-cache]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import api
from repro.trace import homogeneous_mix

#: The figure-9 headline comparison: three points of one sweep.
SCHEMES = ("none", "berti", "berti+clip")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", nargs="?", default="605.mcf_s-1536B")
    parser.add_argument("instructions", nargs="?", type=int,
                        default=20_000)
    parser.add_argument("--jobs", "-j", type=int, default=1)
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args()

    print(f"Table-3 machine size: {args.workload} x64 cores, 8 channels, "
          f"{args.instructions} instructions/core, jobs={args.jobs}")
    started = time.time()
    swept = api.sweep(SCHEMES, homogeneous_mix(args.workload, 64),
                      channels=8, num_cores=64,
                      sim_instructions=args.instructions, jobs=args.jobs,
                      cache=not args.no_cache)
    print(f"  {swept.simulated} simulated, {swept.cache_hits} from "
          f"cache in {time.time() - started:7.1f}s")
    for label in SCHEMES:
        print(f"  {label:<12} aggregate IPC "
              f"{sum(swept.only(label).ipc_per_core):7.2f}")
    baseline = swept.only("none")
    for label in SCHEMES[1:]:
        print(f"{label:<12} weighted speedup "
              f"{api.weighted_speedup(swept.only(label), baseline):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
