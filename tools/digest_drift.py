"""Outputs that moved between two trees with no new committed digest.

Usage: python3 tools/digest_drift.py BASE_LISTING HEAD_LISTING BASE_BASELINE HEAD_BASELINE

The listings are ``tools/output_digests.py`` as the base tree and as the
head tree run it on one machine; the baselines are the two trees'
committed ``tools/output_digests.txt``.  A path whose digest differs
between the listings has drifted when its line is the same in both
baselines: the head moved that output without regenerating the baseline,
which is how a change that moves output on purpose says so.  Paths in one
listing only are not compared.  Prints each drifted path and exits 1 if
there is one, else exits 0.
"""

from __future__ import annotations

import sys


def by_path(path: str) -> dict[str, str]:
    """The digest of each path of a listing; the ``#`` lines are skipped."""
    with open(path) as fh:
        return dict(line.rstrip("\n").split("  ", 1)[::-1]
                    for line in fh if line.strip() and not line.startswith("#"))


def drifted(base: dict, head: dict, base_baseline: dict, head_baseline: dict) -> list[str]:
    return [path for path in sorted(base.keys() & head.keys())
            if base[path] != head[path] and base_baseline.get(path) == head_baseline.get(path)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = drifted(*map(by_path, args))
    for path in paths:
        print(f"output moved with no new line in tools/output_digests.txt: {path}")
    return 1 if paths else 0


if __name__ == "__main__":
    raise SystemExit(main())
