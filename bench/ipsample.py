#!/usr/bin/env python3
"""Instruction-pointer sampler for a `bisramgen` run (x86-64 Linux).

Starts the program as a ptrace child, stops its main thread every
millisecond, reads the instruction pointer, and lets it go on.
At exit it maps each sample to its function through `nm` (the PIE load
base comes from /proc/PID/maps) and, with --lines, to its source line
through `addr2line`, then prints the 25 largest shares of the samples
(pipe through grep to pick out names).

It reports shares only: the stops slow the run down, so it is not a
timing harness (perfbench is).  Unlike a span timer or a SIGPROF
handler, it charges each sample to the instruction the thread was at,
inlined helpers included.

    python3 bench/ipsample.py [--lines] -- EXE campaign ARGS...

e.g. `make profile`, or
    python3 bench/ipsample.py --lines -- \\
        _build/default/bin/bisramgen.exe campaign --mode poisson --mean 3 \\
        --trials 1488 --seed 7
"""

import argparse
import bisect
import collections
import ctypes
import os
import signal
import subprocess
import sys
import time

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGS = 12
RIP = 16  # index of rip in struct user_regs_struct
INTERVAL = 0.001  # seconds between samples
TOP = 25  # rows per table

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p,
                        ctypes.c_void_p]


def traceme():
    if libc.ptrace(PTRACE_TRACEME, 0, None, None) != 0:
        os._exit(127)


def load_base(pid, exe):
    """The address the executable's first segment (offset 0) is mapped at."""
    real = os.path.realpath(exe)
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and parts[5] == real and int(parts[2], 16) == 0:
                return int(parts[0].split("-")[0], 16)
    raise SystemExit(f"ipsample: {real} not mapped in process {pid}")


def sample(argv):
    """Run argv to completion; return (ips, load base)."""
    child = subprocess.Popen(argv, preexec_fn=traceme,
                             stdout=subprocess.DEVNULL)
    pid = child.pid
    os.waitpid(pid, 0)  # the exec stop
    base = load_base(pid, argv[0])
    regs = (ctypes.c_ulonglong * 27)()
    ips = []
    pending = 0  # signal to deliver on the next continue
    while True:
        libc.ptrace(PTRACE_CONT, pid, None, ctypes.c_void_p(pending))
        pending = 0
        time.sleep(INTERVAL)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            pass
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            break
        sig = os.WSTOPSIG(status)
        if libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs)) == 0:
            ips.append(regs[RIP])
        if sig != signal.SIGSTOP:
            pending = sig  # the program's own signal goes through
    return ips, base


def functions(exe):
    """Sorted (address, name) of the executable's text symbols."""
    out = subprocess.run(["nm", "-n", "--defined-only", exe],
                         capture_output=True, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tT":
            syms.append((int(parts[0], 16), parts[2]))
    return syms


def lines_of(exe, addrs):
    """Source line of each address, through one addr2line call."""
    if not addrs:
        return {}
    out = subprocess.run(["addr2line", "-e", exe] + [hex(a) for a in addrs],
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(addrs, out.splitlines()))


def table(title, counts, total):
    print(f"{title} ({total} samples)")
    for name, n in counts.most_common(TOP):
        print(f"{100.0 * n / total:6.2f}%  {n:7d}  {name}")
    print()


def main():
    ap = argparse.ArgumentParser(
        description="ptrace instruction-pointer sampler (shares only)")
    ap.add_argument("--lines", action="store_true",
                    help="also print per-line shares")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    argv = a.argv[1:] if a.argv[:1] == ["--"] else a.argv
    if not argv:
        ap.error("no program to run")
    exe = argv[0]
    ips, base = sample(argv)
    if not ips:
        raise SystemExit("ipsample: no samples (the run ended too soon)")
    syms = functions(exe)
    starts = [s for s, _ in syms]
    by_fn = collections.Counter()
    rel = []
    for ip in ips:
        off = ip - base
        rel.append(off)
        i = bisect.bisect_right(starts, off) - 1
        by_fn[syms[i][1] if i >= 0 else "?"] += 1
    total = len(ips)
    table("per function", by_fn, total)
    if a.lines:
        where = lines_of(exe, sorted(set(rel)))
        by_line = collections.Counter(where.get(off, "?") for off in rel)
        table("per line", by_line, total)


if __name__ == "__main__":
    sys.exit(main())
