"""Regenerate connected_ref.json: the library's connected simple counts for
every on-wall instance of the `connected` pool.

    python3 bench/record_connected.py

Off a wall the benchmark checks a connected count against the disconnected
one; on a wall no cheap independent check exists at d <= 9 (the enumeration
oracle stops at d = 8 and is far too slow there), so the values are
recorded once from the library and compared exactly thereafter.  Rerun
only when the library's convention for these counts changes on purpose.
"""

from __future__ import annotations

import json
import os
import sys

import gen

sys.path.insert(0, os.path.join(os.path.dirname(gen.HERE), "src"))

from hurwitz import hurwitz_connected_simple  # noqa: E402


def main() -> int:
    ref = {}
    for inst in gen.connected_pool():
        if inst["wall"]:
            x = hurwitz_connected_simple(tuple(inst["mu"]), tuple(inst["nu"]), inst["g"])
            ref[gen.ref_key(inst)] = f"{x.numerator}/{x.denominator}"
    with open(gen.CONNECTED_REF, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(ref)} reference values written to {os.path.relpath(gen.CONNECTED_REF)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
