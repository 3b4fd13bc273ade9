"""Traced stand-in for `python -m bosegas.cli`, used by the traced cli-cold run.

    python -X importtime perfbench/child.py SIDECAR.json COMMAND [--key value ...]

Imports bosegas.cli, writes MARKER to stderr so that the `-X importtime`
lines after it count as lazy imports, runs cli.main on the arguments and
exits with its code.  The wall-clock spans of the import and of cli.main are
written to SIDECAR.json, in perf_counter seconds, which every process on the
machine shares.
"""

import json
import sys
from time import perf_counter

MARKER = "perfbench: cli.main starts"


def main() -> int:
    sidecar, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    from bosegas import cli
    t1 = perf_counter()
    print(MARKER, file=sys.stderr, flush=True)
    try:
        return cli.main(argv)
    finally:
        t2 = perf_counter()
        with open(sidecar, "w") as fh:
            json.dump({"import": [t0, t1], "main": [t1, t2],
                       "file": cli.__file__}, fh)


if __name__ == "__main__":
    sys.exit(main())
