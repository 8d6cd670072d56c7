"""Every single-key edit of the shrunk shipped configs (``EDITS`` of
test_config_fuzz.py, whose test draws 400 of them), each run through its
command with that test's assertions (:func:`test_config_fuzz.check`).

Prints one line per edit, its exit code and the first line of stderr, then
the count of each exit code, and exits 1 if an edit fails an assertion or
raises. The output is deterministic, so two runs, or two commits, compare
line by line. Run from the repository root:

    PYTHONPATH=src python tests/config_fuzz_sweep.py
"""

import sys
import traceback
from collections import Counter

from test_config_fuzz import EDITS, MISSING, check


def main() -> int:
    codes, failed = Counter(), 0
    for edit in EDITS:
        name, path, value = edit
        value = "(deleted)" if value is MISSING else repr(value)
        label = f"{name} {'/'.join(map(str, path))} = {value}"
        try:
            code, err = check(edit)
        except Exception:  # an assertion of check, or an exception main let through
            failed += 1
            print(f"FAIL {label}\n{traceback.format_exc()}", flush=True)
            continue
        codes[code] += 1
        print(f"{code} {label}: {err.strip().splitlines()[0] if err.strip() else ''}", flush=True)
    print(f"{len(EDITS)} edits: " + ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items()))
          + f", {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
