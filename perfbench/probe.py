"""Set-up probe: a fresh interpreter that gets latinrect ready, then says so.

Usage: python3 -I probe.py SRC_DIR TABLES_JSON

Imports the CLI module, as the `latinrect` console script does, builds
the lazy tables named in TABLES_JSON (see `workloads.tables`) and
prints "ready".  The caller times spawn-to-ready.
"""

import json
import sys


def build(package, tables):
    for n in tables["factorial"]:
        package.profiles.factorial_table(n)
    for m in tables["expansion"]:
        package.column_counts._expansion(m)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import latinrect
    import latinrect.cli  # noqa: F401

    build(latinrect, json.loads(sys.argv[2]))
    print("ready", flush=True)
