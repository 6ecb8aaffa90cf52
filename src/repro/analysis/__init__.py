"""Correctness net for the simulator: static lint passes + runtime
invariant sanitizer.

Two halves (docs/static_analysis.md has the full catalogue):

* :mod:`repro.analysis.lint` -- AST passes enforcing simulator
  discipline (determinism, integral time, registered counters, ...),
  run as ``python -m repro.analysis`` or ``repro lint`` and gated in CI
  at zero findings (a sanctioned line carries an inline
  ``# sim-lint: ignore[SIMxxx]``);
* :mod:`repro.analysis.sanitizer` -- an opt-in
  (``REPRO_SANITIZE=1`` / ``SystemConfig.sanitize``) checker layer that
  wraps the engine, MSHRs, caches, DRAM channels, NoC, and cores with
  invariant assertions; when disabled, nothing is wrapped and the hot
  paths are untouched.

Only the dependency-free invariant primitives are imported eagerly, so
hot simulator modules can ``from repro.analysis.invariants import
check`` without pulling in the AST machinery.
"""

from repro.analysis.invariants import SimulationInvariantError, check

__all__ = ["SimulationInvariantError", "check"]
