"""Rule modules; importing this package registers every built-in rule."""

from . import (
    address_flow,
    address_math,
    api_hygiene,
    determinism,
    hotpath,
    ipa_address_flow,
    mirror_coherence,
    observability,
    snapshot_determinism,
    spawn_safety,
    units_discipline,
)

__all__ = [
    "address_flow",
    "address_math",
    "api_hygiene",
    "determinism",
    "hotpath",
    "ipa_address_flow",
    "mirror_coherence",
    "observability",
    "snapshot_determinism",
    "spawn_safety",
    "units_discipline",
]
