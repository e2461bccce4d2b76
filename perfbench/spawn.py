"""Run one command and report its own wall time and rusage.

    python3 -S -E spawn.py RESULT_FD TIMEOUT_S CMD [ARG ...]

``run.py`` starts every timed process through this small launcher rather
than directly. On Linux a child's ``ru_maxrss`` also counts the memory
high-water mark of the address space that ``exec`` replaced, which for a
child spawned straight from the runner is the runner's own: numpy, the
generated inputs and the calibration. A child would then report the runner's
peak RSS whenever that is the larger. This launcher imports nothing but the
standard library's core, so the floor it leaves (~10 MiB) stays below any
process the benchmark times.

CMD inherits stdin, stdout, stderr and the environment. The launcher kills
CMD after TIMEOUT_S seconds or on SIGTERM, waits for it, and writes
``{"rc", "wall_s", "cpu_s", "maxrss_kib"}`` as JSON to the inherited file
descriptor RESULT_FD.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result_fd, timeout = int(sys.argv[1]), float(sys.argv[2])
    cmd = sys.argv[3:]
    os.set_inheritable(result_fd, False)
    child: list[int] = []

    def stop(*_) -> None:
        if child:
            os.kill(child[0], signal.SIGKILL)
        else:
            sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    child.append(os.posix_spawn(cmd[0], cmd, os.environ))
    _, status, usage = os.wait4(child[0], 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    with os.fdopen(result_fd, "w") as out:
        json.dump({"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_kib": usage.ru_maxrss}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
