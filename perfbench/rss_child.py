"""Run one ``fdrepair repair`` in a fresh interpreter and report its peak RSS.

Usage: python3 rss_child.py SRC_DIR REPAIR_ARGS...

The last line of standard output is a JSON object with the CLI's return
code and the process's peak resident set size in kilobytes.
"""

import json
import resource
import sys


def main():
    sys.path.insert(0, sys.argv[1])
    from fdrepair import cli
    rc = cli.main(sys.argv[2:])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rc": rc, "peak_rss_kb": peak_kb}))


if __name__ == "__main__":
    main()
