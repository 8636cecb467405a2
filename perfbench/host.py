"""Host side of the benchmark: running a child process with its resource
usage, parsing /proc, and the host facts recorded with every result."""

import hashlib
import os
import platform
import subprocess
import threading
import time
from pathlib import Path

# A child that runs longer than this is killed and its run fails; the
# benchmark as a whole must end within 180 s.
CHILD_DEADLINE_S = 150.0


def parse_proc_stat(text):
    """Parses the one line of /proc/<pid>/stat.

    The second field is the command name in parentheses, and the name may
    itself contain spaces and ')', so it runs from the first '(' to the
    last ')'. Returns the name and the fields the benchmark reads, or None
    for text that is not a stat line.
    """
    open_ = text.find("(")
    close = text.rfind(")")
    if open_ < 1 or close < open_:
        return None
    # The fields after the name start at field 3 (state); num_threads is
    # field 20.
    rest = text[close + 1:].split()
    if len(rest) < 18:
        return None
    try:
        return {
            "pid": int(text[:open_].strip()),
            "comm": text[open_ + 1:close],
            "num_threads": int(rest[17]),
        }
    except ValueError:
        return None


def read_proc_stat(pid):
    """The parsed /proc/<pid>/stat of a live process, or None once it is
    gone (or on a host without /proc)."""
    try:
        return parse_proc_stat(Path(f"/proc/{pid}/stat").read_text())
    except OSError:
        return None


def parse_cpuinfo_model(text):
    """The first 'model name' of a /proc/cpuinfo text, or None."""
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and key.strip() == "model name":
            return value.strip()
    return None


def parse_proc_status_kb(text, field):
    """A '<field>:  N kB' value of a /proc/<pid>/status text, or None.
    Fields are matched at the start of a line, so a process name holding
    the same words cannot shadow them."""
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and key == field:
            parts = value.split()
            return int(parts[0]) if parts and parts[0].isdigit() else None
    return None


def read_proc_status_kb(pid, field):
    try:
        return parse_proc_status_kb(Path(f"/proc/{pid}/status").read_text(), field)
    except OSError:
        return None


def run_measured(argv, cwd, out_path, err_path):
    """Runs one child with stdout and stderr sent to files and returns its
    host costs: wall seconds, user and sys CPU seconds, context switches
    and exit code from wait4, and the peak resident memory (VmHWM) and
    most threads of its /proc entries, sampled every 50 ms.

    The peak comes from /proc and not from wait4's ru_maxrss, because a
    forked child's ru_maxrss starts at its parent's peak: it would report
    this Python process, not the simulator. The child is reaped only after
    sampling stops, so its pid cannot be reused under the sampler.
    """
    peak = {"threads": 0, "hwm_kb": 0}
    stop = threading.Event()

    def sample(pid):
        while not stop.is_set():
            stat = read_proc_stat(pid)
            hwm = read_proc_status_kb(pid, "VmHWM")
            if stat:
                peak["threads"] = max(peak["threads"], stat["num_threads"])
            if hwm:
                peak["hwm_kb"] = max(peak["hwm_kb"], hwm)
            stop.wait(0.05)

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_DEADLINE_S, child.kill)
        sampler = threading.Thread(target=sample, args=(child.pid,))
        killer.start()
        sampler.start()
        try:
            os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            stop.set()
            sampler.join()
            killer.cancel()
            _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": peak["hwm_kb"] / 1024.0,
        "ctx_switches": usage.ru_nvcsw + usage.ru_nivcsw,
        "exit_code": child.returncode,
        "peak_threads": peak["threads"],
    }


def _first_line(argv, cwd):
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    out = done.stdout.strip().splitlines()
    return out[0] if done.returncode == 0 and out else None


def source_digest(root):
    """SHA-256 over the repository's Rust sources and manifests, so a
    result names the code it measured even in a checkout without git."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    files += sorted((root / "crates").rglob("*.rs")) + sorted((root / "crates").rglob("Cargo.toml"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(root)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def host_facts(root, seed):
    """Facts that make two results comparable, recorded with each one."""
    try:
        cpu = parse_cpuinfo_model(Path("/proc/cpuinfo").read_text())
    except OSError:
        cpu = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
        "kernel": platform.release(),
        "rustc": _first_line(["rustc", "--version"], root) or "unknown",
        # Only the checkout's own repository, never one around it.
        "git_commit": ((root / ".git").exists() and _first_line(["git", "rev-parse", "HEAD"], root))
        or "none (not a git checkout)",
        "source_sha256": source_digest(root),
        "seed": seed,
    }
