"""Starts the benchmark's operation processes on behalf of ``run.py``.

Linux carries the parent's resident-set high-water mark into a child's
``ru_maxrss`` across fork and exec, so children of the benchmark process
(which holds the generated panels) would all report its size.  This small
process is started before any input exists and spawns every operation, so
``ru_maxrss`` reflects the operation itself.  It reads one JSON request per
line on stdin and answers with ``[wall seconds, max RSS MB, exit code]``.
"""

import json
import os
import subprocess
import sys
import time


def spawn(cmd: list, env: dict, out_path: str, err_path: str, cwd: str,
          timeout: float) -> tuple:
    """Run ``cmd`` to completion, killing it after ``timeout`` seconds."""
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=cwd)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > timeout:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        result = spawn(req["cmd"], req["env"], req["stdout"], req["stderr"],
                       req["cwd"], req["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
