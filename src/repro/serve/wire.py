"""JSON wire form of a sweep point.

The worker protocol ships :class:`RunSpec` objects over HTTP, and the
campaign manifest persists them across coordinator restarts.  Both use
this round trip, whose contract is stronger than "same fields": the
reconstructed spec must produce the **same cache key**, because the
key is how the coordinator dedups jobs and how completed results are
found in the :class:`ResultStore` after a resume.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.experiments.sweep import RunSpec, Scheme


def spec_to_dict(spec: RunSpec) -> Dict:
    """JSON-ready form of one sweep point."""
    scheme = dataclasses.asdict(spec.scheme)
    # Tuples of (field, value) pairs -> lists for JSON; values are the
    # scalar ClipConfig field types (int/float/bool).
    scheme["clip_overrides"] = [list(pair)
                                for pair in spec.scheme.clip_overrides]
    return {
        "scheme": scheme,
        "mix": list(spec.mix),
        "channels": spec.channels,
        "num_cores": spec.num_cores,
        "sim_instructions": spec.sim_instructions,
    }


#: Scheme fields that older releases wrote and this one removed: a
#: point's size lives only in the spec, and Fig. 18's table scaling in
#: ``clip_overrides``.  Unset (null), they described nothing.
_REMOVED_SCHEME_FIELDS = ("num_cores", "sim_instructions",
                          "clip_filter_scale", "clip_predictor_scale")


def spec_from_dict(payload: Dict) -> RunSpec:
    """Rebuild a :class:`RunSpec` from :func:`spec_to_dict` output.

    A removed scheme field written by an older release is dropped when
    null; set, it named a point this release cannot spell, so it is a
    ``ValueError`` naming the field.
    """
    fields = dict(payload["scheme"])
    for name in _REMOVED_SCHEME_FIELDS:
        if fields.pop(name, None) is not None:
            raise ValueError(f"scheme field {name!r} was removed; this "
                             f"point cannot be rebuilt")
    # Back to a mapping so Scheme.__post_init__ re-canonicalises the
    # pairs into its sorted hashable tuple form.
    fields["clip_overrides"] = dict(
        (key, value) for key, value in fields.get("clip_overrides", []))
    return RunSpec(
        scheme=Scheme(**fields),
        mix=tuple(payload["mix"]),
        channels=payload["channels"],
        num_cores=payload["num_cores"],
        sim_instructions=payload["sim_instructions"],
    )
