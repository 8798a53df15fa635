#!/usr/bin/env python3
"""Compute the ideal Mobius value for the block subgroup GL(1,3) + I_2 inside
GL(3,3); expected to vanish.  Takes about 0.8 s (0.75-1.0 s over five runs
on a 2-core x86-64 host with Python 3.11), five of the ten intervals
[H, M] searched and the other five conjugated from them.

Usage: python3 scripts/slow_instance.py
"""

import sys
import time

from mobius_lattice.cli import preset_generators
from mobius_lattice.gfq import FqField
from mobius_lattice.group import closure
from mobius_lattice.identities import build_ideal, mu_ideal, stabilizer_family
from mobius_lattice.linalg import Matrix


def main() -> int:
    f3 = FqField(3)
    t0 = time.monotonic()
    group = closure(preset_generators("GL", 3, f3))
    print(f"closed GL(3,3): order {group.order} ({time.monotonic() - t0:.1f}s)")
    h = group.subgroup_closure([group.index_of(
        Matrix.from_rows(f3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))])
    t0 = time.monotonic()
    family = stabilizer_family(group, h)
    ideal = build_ideal(family)
    value = mu_ideal(ideal)
    print(f"ideal: {len(ideal.members)} members ({time.monotonic() - t0:.1f}s)")
    print(f"mu_ideal(H, GL(3,3)) = {value}")
    return 0 if value == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
