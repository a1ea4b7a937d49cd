"""Compare two saved benchmark results metric by metric.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Both files come from ``run.py --save``.  The comparison is refused (exit 2)
when the two ran different workloads, trace modes or kernel backends: a
numba figure is never set against a numpy one.
"""

from __future__ import annotations

import json
import sys


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = (json.load(open(p)) for p in argv)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing: {key} {base[key]!r} vs {new[key]!r}", file=sys.stderr)
            return 2
    if base["env"]["backend"] != new["env"]["backend"]:
        print(f"refusing: backend {base['env']['backend']} vs "
              f"{new['env']['backend']}", file=sys.stderr)
        return 2
    for name in ("python", "numpy", "scipy", "cpu", "nproc"):
        if base["env"][name] != new["env"][name]:
            print(f"warning: {name} {base['env'][name]} vs {new['env'][name]}")
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    print(f"{'metric':34} {'base':>14} {'new':>14} {'new/base':>9}  unit")
    for name in sorted(set(bm) | set(nm)):
        b = bm.get(name, {}).get("value")
        n = nm.get(name, {}).get("value")
        unit = (bm.get(name) or nm.get(name))["unit"]
        ratio = f"{n / b:9.3f}" if b and n is not None else f"{'-':>9}"
        fmt = lambda v: f"{v:14.4f}" if v is not None else f"{'-':>14}"
        print(f"{name:34} {fmt(b)} {fmt(n)} {ratio}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
