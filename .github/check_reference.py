#!/usr/bin/env python3
"""Check a benchmark run against its recorded references, from its output.

    python3 perfbench/run.py --workload W --seconds 1 | python3 .github/check_reference.py W

Exits 0 only when the last line of standard input is the JSON result with
"correct": true.  Otherwise it prints the problems (each failed solve and its
normwise error) of the `record` line to standard error and fails, naming the
workload W.
"""

import json
import sys


def main(workload: str, text: str) -> int | str:
    *rest, last = text.splitlines() or [""]
    try:
        if json.loads(last).get("correct") is True:
            return 0
    except (ValueError, AttributeError):  # not a JSON object: no result
        pass
    for line in rest:
        if line.startswith("record "):
            print(*json.loads(line[len("record "):])["problems"], sep="\n", file=sys.stderr)
    return f"{workload}: not correct"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.stdin.read()))
