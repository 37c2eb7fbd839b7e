"""Run one command; print its wall time, CPU time, the host's steal time
during it, its peak resident set and its exit code.

    python3 bench/launch.py <command...>

``run.py`` starts every stage through this small process.  On Linux a
child's ``ru_maxrss`` counts the resident set of the process it was
forked from, so a stage forked straight from the benchmark, which holds
the generated tree in memory, would report the benchmark's memory as its
own.  Forked from here, it reports its own.  Steal is the time the
hypervisor kept this machine's busy CPUs from running, summed over the
CPUs, from ``/proc/stat`` (0 where that file does not exist).  The
command's standard output goes to this process's standard error;
standard output carries one JSON object.
"""

import json
import os
import subprocess
import sys
import time


def steal_seconds() -> float:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def main() -> None:
    steal = steal_seconds()
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=sys.stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    steal = steal_seconds() - steal
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump(
        {
            "seconds": seconds,
            "cpu_seconds": usage.ru_utime + usage.ru_stime,
            "steal_seconds": steal,
            "maxrss_kb": usage.ru_maxrss,
            "returncode": proc.returncode,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
