"""Starts program processes on request and reports their time and memory.

The benchmark keeps this small process alive for a whole run and sends it
one JSON request per line on stdin: ``{"argv", "stdout", "stderr",
"env"}``, with file paths for the program's two output streams (its stdin
is empty).  It answers each with one JSON line ``{"returncode",
"seconds", "maxrss_kb"}``.

It exists for the memory figure: on Linux a child inherits its parent's
peak RSS at exec, so a program started from the benchmark itself, which
holds the generated corpus, would report the benchmark's peak instead of
its own.  This process stays a few MB, below any program process.
"""

import json
import os
import subprocess
import sys
import time


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                     stderr=err, env=request["env"])
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {"returncode": child.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
