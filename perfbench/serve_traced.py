"""``repro serve`` with the benchmark's span wrappers installed.

Run as ``python perfbench/serve_traced.py <serve flags>`` with
``PERFBENCH_TRACE_DIR`` set.  Shards start with the ``spawn`` method,
which re-imports this file (as ``__mp_main__``) in every shard process
before the worker runs, so the module-level :func:`tracing.install`
call is the startup hook for the front door and each shard alike.
``SIGUSR1`` makes a process write its spans.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

tracing.install(os.environ["PERFBENCH_TRACE_DIR"])

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(["serve", *sys.argv[1:]]))
