"""Per-layer figures from one traced phase.

Inputs are the span files ``tracing`` wrote in every ``serve`` process
and the load generator's own outcomes (the client HTTP span runs from
send to full reply).  Spans of one request are joined by the reply
fields every layer sees: ``(source, version, response_s)`` for a query,
the fabric version for an update.  Self time is a span minus its
children.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from loadgen import Outcome
from schedule import QUERY


def load_spans(paths: Sequence[Path]) -> list[dict]:
    """Process dumps: ``{"pid", "spans", "global_metrics"}`` each."""
    return [json.loads(path.read_text()) for path in paths]


def _key(attrs: dict) -> tuple:
    return (attrs["source"], attrs["version"], attrs["response_s"])


class Ledger:
    """Spans of all processes that started at or after ``since``."""

    def __init__(self, dumps: Sequence[dict], since: float = 0.0) -> None:
        self.by_name: dict[str, list[list]] = {}
        self.children: dict[tuple[int, int], list[list]] = {}
        self.global_counters: dict[int, dict[str, int]] = {}
        for dump in dumps:
            pid = dump["pid"]
            self.global_counters[pid] = dump["global_metrics"]["counters"]
            for span in dump["spans"]:
                if span[3] < since:
                    continue
                span.append(pid)  # span[6]: owning process
                self.by_name.setdefault(span[2], []).append(span)
                if span[1]:
                    self.children.setdefault((pid, span[1]), []).append(span)
        self.queries = {
            name: {_key(s[5]): s for s in self.spans(name) if s[5]["status"] == "ok"}
            for name in ("frontdoor.query", "manager.query")
        }

    def spans(self, name: str) -> list[list]:
        return self.by_name.get(name, [])

    def durations_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.spans(name)]

    def self_ms(self, name: str) -> list[float]:
        """Duration minus the part of it the span's children cover."""
        out = []
        for span in self.spans(name):
            covered = sum(c[4] - c[3] for c in self.children.get((span[6], span[0]), ()))
            out.append((span[4] - span[3] - covered) * 1e3)
        return out

    def client_minus_ms(self, name: str, outcomes: Sequence[Outcome]) -> list[float]:
        """Client HTTP span minus the ``name`` query span it caused."""
        spans = self.queries[name]
        out = []
        for o in outcomes:
            span = spans.get(_key(o.body)) if o.item.kind == QUERY and o.answered else None
            if span is not None:
                out.append((o.done - o.sent - (span[4] - span[3])) * 1e3)
        return out

    def ipc_ms(self) -> list[float]:
        """Manager round trip minus the worker-measured response time."""
        return [
            (s[4] - s[3] - s[5]["response_s"]) * 1e3
            for s in self.queries["manager.query"].values()
        ]

    def wait_ms(self) -> list[float]:
        """Worker response time minus the service span (the algorithm call)."""
        return [
            (s[5]["response_s"] - s[5]["service_s"]) * 1e3
            for s in self.spans("serving.query")
            if s[5]["status"] == "ok"
        ]

    def attr_mean(self, name: str, attr: str) -> float:
        values = [s[5][attr] for s in self.spans(name)]
        return sum(values) / len(values) if values else 0.0

    def joined_share(self, outcomes: Sequence[Outcome]) -> float:
        """Share of answered client queries whose manager span was found."""
        answered = [o for o in outcomes if o.item.kind == QUERY and o.answered]
        found = sum(_key(o.body) in self.queries["manager.query"] for o in answered)
        return found / len(answered) if answered else 0.0

    def counter_total(self, name: str, pids: Sequence[int]) -> int:
        return sum(self.global_counters.get(pid, {}).get(name, 0) for pid in pids)
