"""CPU time and memory of a process tree, read from ``/proc``.

``repro serve`` is one front-door process plus one spawned process per
shard (and whatever helpers multiprocessing starts); every figure here
covers the whole tree under the launched pid.
"""

from __future__ import annotations

import os

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    # comm may hold spaces and parentheses; fields resume after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def _parent(pid: int) -> int | None:
    try:
        return int(_stat_fields(pid)[1])
    except (OSError, ValueError, IndexError):
        return None


def tree(root: int) -> list[int]:
    """``root`` and every live descendant, parents before children."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            parent = _parent(int(name))
            if parent is not None:
                children.setdefault(parent, []).append(int(name))
    order = [root]
    for pid in order:
        order.extend(sorted(children.get(pid, ())))
    return order


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def cpu_seconds(pid: int) -> float:
    """User + system CPU time the process has used so far."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICKS


def status_kb(pid: int, key: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} not in /proc/{pid}/status")


def cpu_by_pid(pids: list[int]) -> dict[int, float]:
    """CPU seconds of each pid still alive."""
    out: dict[int, float] = {}
    for pid in pids:
        try:
            out[pid] = cpu_seconds(pid)
        except OSError:
            pass
    return out
