"""Run one command; report its wall time, exit code and peak RSS as JSON.

    python3 bench/spawn.py STDOUT_FILE STDERR_FILE COMMAND...

run.py starts every measured child through this small process.  On Linux a
child's peak RSS (ru_maxrss from wait4) is at least the RSS of the process
that spawned it, so a child started straight from the benchmark would be
charged with the benchmark's own memory.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, err_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
