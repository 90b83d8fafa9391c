"""Print the sha256 of each reference CSV that `arrowtime` writes.

    python tools/csv_digests.py [SRC_DIR] > digests.txt

Runs six reference configurations in-process against the `arrowtime`
package under SRC_DIR (default: this checkout's `src/`) and prints one
`name sha256` line per CSV.  To check that a change keeps every byte,
run it on both trees and diff the two outputs:

    python tools/csv_digests.py old/src > old.txt
    python tools/csv_digests.py src > new.txt
    diff old.txt new.txt

The digests depend on the numpy build and the CPU, so compare outputs
made on one machine; no test pins them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

# (name, command, config): the four default commands and two non-default paths
CASES = (
    ("trace", "trace", {}),
    ("frames", "frames", {}),
    ("equiv", "equiv", {}),
    ("galapon", "galapon", {}),
    ("trace_exponential", "trace", {"experiment": "exponential", "t_count": 21}),
    (
        "equiv_linear",
        "equiv",
        {"spacing": "linear", "grid_n": 16384, "e_min": 0.5, "m_size": 32768},
    ),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default_src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    parser.add_argument("src", nargs="?", default=default_src, help="directory holding arrowtime/")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from arrowtime.cli import main as arrowtime_main

    with tempfile.TemporaryDirectory() as tmp:
        for name, command, config in CASES:
            cfg_path, out = os.path.join(tmp, f"{name}.json"), os.path.join(tmp, f"{name}.csv")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            code = arrowtime_main([command, "--config", cfg_path, "--out", out])
            if code != 0:
                print(f"{name}: arrowtime {command} exited {code}", file=sys.stderr)
                return 1
            with open(out, "rb") as fh:
                print(name, hashlib.sha256(fh.read()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
