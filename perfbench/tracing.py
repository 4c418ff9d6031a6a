"""Spans around the public entry points of ``repro serve``'s layers.

:func:`install` wraps, in whichever process imports it:

* front door: ``FrontDoor.query``/``update`` and
  ``ShardManager.query``/``update``;
* shard: ``ServingRuntime`` submit -> completion (read from the
  ``on_complete`` records), each algorithm's ``query``/``apply_update``,
  and ``forward_push``, ``add_walk_estimates`` and ``apply_edge_update``
  as bound in the modules that call them.

A span is ``[id, parent, name, start, end, attrs]`` with
``time.perf_counter()`` times, which share one monotonic clock across
the processes of a host.  Spans nest per thread.  Requests carry no
id across the shard pipe, so spans are linked across processes by the
reply fields they share: ``(source, version, response_s)`` for
queries, the fabric version for updates.  Spans stay in memory; on
``SIGUSR1`` a process writes them, with its process-wide metrics
registry, as JSON to ``$PERFBENCH_TRACE_DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import threading
import time

_ids = itertools.count(1)
_spans: list[list] = []
_local = threading.local()
_clock = time.perf_counter


def _stack() -> list[list]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _roots() -> list[list]:
    """Finished parentless spans of this thread, awaiting a request."""
    roots = getattr(_local, "roots", None)
    if roots is None:
        roots = _local.roots = []
    return roots


def traced(name, attrs=None):
    """Decorator: one nested span per call of a synchronous function.

    A call made inside a span of the same name (an override calling
    ``super()``) does not open a second span.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            stack = _stack()
            if stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            span = [next(_ids), stack[-1][0] if stack else 0, name, _clock(), 0.0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = _clock()
                stack.pop()
                _spans.append(span)
            if attrs is not None:
                span[5] = attrs(args, result)
            if span[1] == 0:
                _roots().append(span)
            return result

        return inner

    return decorate


def _query_key(body) -> dict:
    return {
        "source": body.get("source"),
        "version": body.get("version"),
        "response_s": body.get("response_s"),
        "status": body.get("status"),
        "shard": body.get("shard"),
    }


def _wrap_endpoint(cls, method: str, name: str, key) -> None:
    fn = getattr(cls, method)

    @functools.wraps(fn)
    async def inner(self, *args, **kwargs):
        start = _clock()
        response = await fn(self, *args, **kwargs)
        _spans.append([next(_ids), 0, name, start, _clock(), key(response.body)])
        return response

    setattr(cls, method, inner)


def _install_frontdoor() -> None:
    from repro.api.frontdoor import FrontDoor
    from repro.shard.manager import ShardManager

    _wrap_endpoint(FrontDoor, "query", "frontdoor.query", _query_key)
    _wrap_endpoint(
        FrontDoor, "update", "frontdoor.update",
        lambda body: {"version": body.get("version")},
    )
    manager_query = ShardManager.query
    manager_update = ShardManager.update

    @functools.wraps(manager_query)
    def query(self, *args, **kwargs):
        start = _clock()
        future = manager_query(self, *args, **kwargs)

        def finished(done) -> None:
            outcome = done.result()
            _spans.append([
                next(_ids), 0, "manager.query", start, _clock(),
                {
                    "source": outcome.source,
                    "version": outcome.version,
                    "response_s": outcome.response_s,
                    "status": outcome.status,
                    "shard": outcome.shard_id,
                },
            ])

        future.add_done_callback(finished)
        return future

    @functools.wraps(manager_update)
    def update(self, *args, **kwargs):
        start = _clock()
        outcome = manager_update(self, *args, **kwargs)
        _spans.append([
            next(_ids), 0, "manager.update", start, _clock(),
            {"version": outcome.version},
        ])
        return outcome

    ShardManager.query = query
    ShardManager.update = update


def _on_record(record) -> None:
    """Close the submit -> completion span of one runtime record."""
    end = _clock()
    request = record.request
    is_query = request.kind == "query"
    want = "ppr.query" if is_query else "ppr.update"
    child = None
    if not (is_query and record.cached):  # a cache hit runs no algorithm
        # the worker completing a request ran its algorithm call on this
        # thread just before; earlier roots belong to other records
        roots = _roots()
        for i in range(len(roots) - 1, -1, -1):
            if roots[i][2] == want:
                child = roots.pop(i)
                break
    sid = next(_ids)
    if child is not None:
        child[1] = sid
    service_s = (
        child[4] - child[3]
        if child is not None
        else record.finished_s - record.started_s
    )
    _spans.append([
        sid, 0, "serving.query" if is_query else "serving.update",
        record.submitted_s, end,
        {
            "source": request.source,
            "version": record.version,
            "response_s": record.response_s,
            "status": record.status,
            "cached": record.cached,
            "service_s": service_s,
        },
    ])


def _install_shard() -> None:
    import repro.ppr.fora as fora
    import repro.ppr.incremental as incremental
    from repro.ppr import ALGORITHMS
    from repro.serving.runtime import ServingRuntime

    fora.forward_push = traced(
        "ppr.push", lambda args, result: {"pushes": result.pushes}
    )(fora.forward_push)
    fora.add_walk_estimates = traced(
        "ppr.walk", lambda args, result: {"walks": result.num_walks}
    )(fora.add_walk_estimates)
    incremental.apply_edge_update = traced(
        "ppr.index_update", lambda args, result: {"resampled": result}
    )(incremental.apply_edge_update)
    for cls in set(ALGORITHMS.values()):
        if "query" in cls.__dict__:
            cls.query = traced(
                "ppr.query", lambda args, result: {"source": args[1]}
            )(cls.__dict__["query"])
        if "apply_update" in cls.__dict__:
            cls.apply_update = traced("ppr.update")(cls.__dict__["apply_update"])

    runtime_init = ServingRuntime.__init__

    @functools.wraps(runtime_init)
    def init(self, *args, on_complete=None, **kwargs):
        def complete(record) -> None:
            _on_record(record)
            if on_complete is not None:
                on_complete(record)

        runtime_init(self, *args, on_complete=complete, **kwargs)

    ServingRuntime.__init__ = init


def _dump(path: str) -> None:
    from repro.obs import get_metrics

    payload = {
        "pid": os.getpid(),
        "spans": list(_spans),
        "global_metrics": get_metrics().snapshot(),
    }
    # write then rename, so a reader never sees a partial file
    with open(path + ".tmp", "w") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def install(out_dir: str) -> None:
    """Wrap every layer's entry points; dump the spans on SIGUSR1."""
    _install_frontdoor()
    _install_shard()
    path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
    signal.signal(signal.SIGUSR1, lambda signum, frame: _dump(path))
