"""Deterministic seed derivation.

Every randomized operation in the toolkit draws from a ``random.Random``
seeded through :func:`derive_seed`, so identical inputs give identical
outputs across runs, platforms, and thread counts.  Never use the builtin
``hash`` here: string hashing is salted per process.

``hashlib`` is imported on the first :func:`derive_seed` call, not with
the module: only ``synth`` and ``augment`` derive seeds, and the import is
a measurable share of every other short CLI process's start-up.
"""

from __future__ import annotations

import random

_sha256 = None


def derive_seed(*parts: object) -> int:
    """Collapse namespace parts into a stable 64-bit integer seed."""
    global _sha256
    if _sha256 is None:
        from hashlib import sha256 as _sha256
    text = "\x1f".join(str(p) for p in parts)
    digest = _sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(*parts: object) -> random.Random:
    """A fresh generator seeded from the given namespace parts."""
    return random.Random(derive_seed(*parts))
