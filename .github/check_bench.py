"""Pass only if a benchmark run's verdict says every operation was right.

Usage: python .github/check_bench.py run.out

``bench/run.py`` exits 0 even when an operation gives a wrong answer: its
verdict is the last line of its stdout, one JSON object.  This reads that
line from the saved stdout and exits 1 unless it has ``"correct": true``,
``"failed": 0`` and at least one attempted operation.  Standard library only.
"""

import json
import sys


def verdict(path):
    """The JSON object on the last nonempty line of ``path``, or None."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        return None
    try:
        out = json.loads(lines[-1])
    except ValueError:
        return None
    return out if isinstance(out, dict) else None


def main(argv):
    out = verdict(argv[1])
    if out is None:
        print("%s: no JSON verdict on the last line" % argv[1])
        return 1
    ok = out.get("correct") is True and out.get("failed") == 0 and out.get("attempted")
    print(
        "%s: correct %s, %s attempted, %s failed"
        % (argv[1], out.get("correct"), out.get("attempted"), out.get("failed"))
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
