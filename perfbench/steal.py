"""Host steal time, sampled in short slots while a phase plays.

On a virtual machine, *steal* is time a vCPU was ready to run while the
hypervisor ran another guest.  A request to ``repro serve`` wakes three
processes in turn (generator, front door, shard), and request latency
rises with steal much faster than the program's own CPU time does: on
a shared 2-vCPU host, query p50 of FORA on ``dblp`` went from 8.9 ms in
seconds with under 1 % steal to 16.6 ms in seconds with 13-19 %, while
CPU per request rose by about 15 %.  Periods of high steal last from a
few seconds to minutes, so a run's latency depends on when it ran.

:class:`Sampler` reads the aggregate ``cpu`` line of ``/proc/stat``
every :data:`SLOT_S` seconds.  A slot is *quiet* when its steal share is
at most the median share of the phase's slots, so about half the slots
are quiet in a noisy phase and all of them on a host without steal;
when the caller needs more samples, the next quietest slots join.  The
benchmark times requests due in quiet slots: interference from other
guests mostly drops out, and a slower program is still slower in every
slot.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from collections.abc import Callable

#: length of one sampling slot
SLOT_S = 0.5


def read() -> tuple[int, int]:
    """(steal ticks, all ticks) summed over CPUs since boot."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    # user nice system idle iowait irq softirq steal (guest time is
    # already inside user and nice)
    ticks = [int(value) for value in fields[1:9]]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks)


class Sampler:
    """Steal share per slot of ``perf_counter`` time, from a thread.

    Use it as a context manager around the phase, then call
    :meth:`classify` before asking which slots were quiet.
    """

    def __init__(self, slot_s: float = SLOT_S) -> None:
        self.slot_s = slot_s
        #: (slot start, slot end, steal share) in time order
        self.slots: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="steal-sampler", daemon=True)
        self._starts: list[float] = []
        self._quiet: list[bool] = []

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        start, (steal0, total0) = time.perf_counter(), read()
        stopping = False
        while not stopping:
            stopping = self._stop.wait(self.slot_s)
            end, (steal1, total1) = time.perf_counter(), read()
            if total1 > total0:
                self.slots.append((start, end, (steal1 - steal0) / (total1 - total0)))
            start, steal0, total0 = end, steal1, total1

    def slot_of(self, t: float) -> int:
        """Index of the slot holding ``perf_counter`` instant ``t``.

        Instants outside the sampled time belong to the nearest slot.
        """
        return max(bisect.bisect_right(self._starts, t) - 1, 0)

    def classify(self, enough: Callable[[list[bool]], bool] = lambda quiet: True) -> None:
        """Mark the quiet slots.

        Every slot with at most the median steal share is quiet; while
        ``enough(quiet)`` is false, the next quietest slot (the earlier
        on a tie) joins them.
        """
        self._starts = [start for start, _, _ in self.slots]
        shares = [share for _, _, share in self.slots]
        limit = statistics.median(shares) if shares else 0.0
        self._quiet = [False] * len(shares)
        for index in sorted(range(len(shares)), key=lambda i: (shares[i], i)):
            if shares[index] > limit and enough(self._quiet):
                break
            self._quiet[index] = True

    def steal_share(self) -> float:
        """Steal share over the whole sampled time."""
        spans = [end - start for start, end, _ in self.slots]
        if not spans:
            return 0.0
        return sum(s * w for (_, _, s), w in zip(self.slots, spans)) / sum(spans)

    def quiet_share(self) -> float:
        """Share of slots that are quiet."""
        return sum(self._quiet) / len(self._quiet) if self._quiet else 1.0

    def quiet_steal_share(self) -> float:
        """Mean steal share of the quiet slots."""
        shares = [s for (_, _, s), q in zip(self.slots, self._quiet) if q]
        return statistics.fmean(shares) if shares else 0.0

    def is_quiet(self, t: float) -> bool:
        """Whether ``perf_counter`` instant ``t`` fell in a quiet slot.

        With no slot at all everything is quiet.
        """
        return self._quiet[self.slot_of(t)] if self._quiet else True
