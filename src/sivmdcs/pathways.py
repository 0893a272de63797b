"""Third-order rephasing pathways and pulse-tag signatures.

Only the rephasing ordering is handled: the first interaction is conjugate,
so every pathway carries the phase signature (-1, +1, +1, -1), shows up
at the radio-frequency beatnote -nu1 + nu2 + nu3 - nu4, and adds with a
positive sign.

Model rules for a doublet-doublet scheme (fixed by design):
  * ground-state bleach (GSB) pathways connect any ordered pair of
    transitions sharing a ground sublevel (direct peaks when the pair is
    degenerate, cross peaks otherwise);
  * stimulated emission (SE) pathways are direct only -- shared-excited
    emission would require excited-state coherences that are out of scope;
  * excited-state absorption is excluded (no higher-lying manifold).

With the line order of ``LevelScheme.transition_frequencies`` these rules
give the static table ``REPHASING_PATHWAYS``: twelve rows for a four-line
emitter, of which a two-level emitter (one line) has the first two.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

REPHASING_SIGNATURE = (-1, 1, 1, -1)

# (kind, excitation line, emission line): GSB and SE on each direct peak,
# then GSB on the cross peaks between lines 0-2 and 1-3, which share a
# ground sublevel.
REPHASING_PATHWAYS = (
    ("gsb", 0, 0), ("se", 0, 0),
    ("gsb", 1, 1), ("se", 1, 1),
    ("gsb", 2, 2), ("se", 2, 2),
    ("gsb", 3, 3), ("se", 3, 3),
    ("gsb", 0, 2), ("gsb", 1, 3), ("gsb", 2, 0), ("gsb", 3, 1),
)
TWO_LEVEL_PATHWAYS = 2

# The merged table that synthesis reads: each (excitation, emission) pair once,
# in order, with its multiplicity (2 for a direct peak's GSB and SE).
_MERGED = Counter((exc, emit) for _, exc, emit in REPHASING_PATHWAYS)
MERGED_EXCITATION, MERGED_EMISSION = np.array(list(_MERGED)).T
MERGED_MULTIPLICITY = np.array(list(_MERGED.values()), dtype=float)
TWO_LEVEL_TERMS = len({row[1:] for row in REPHASING_PATHWAYS[:TWO_LEVEL_PATHWAYS]})


@dataclass(frozen=True)
class TagSet:
    """Radio-frequency offsets applied to the four pulses, in MHz."""

    nu1_mhz: float = 80.000
    nu2_mhz: float = 80.107
    nu3_mhz: float = 80.214
    nu4_mhz: float = 80.300

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.nu1_mhz, self.nu2_mhz, self.nu3_mhz, self.nu4_mhz)


def signature_frequency(signature, tags: TagSet) -> float:
    """Signed beatnote frequency (MHz) for a pulse-phase signature."""
    if len(signature) != 4:
        raise ValueError(f"signature must have length 4, got {len(signature)}")
    return float(sum(s * nu for s, nu in zip(signature, tags.as_tuple())))


def rephasing_frequency(tags: TagSet) -> float:
    """Beatnote of the rephasing signal, -nu1 + nu2 + nu3 - nu4 (MHz)."""
    return signature_frequency(REPHASING_SIGNATURE, tags)
