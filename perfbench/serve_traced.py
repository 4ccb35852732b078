"""``python -m repro serve`` with the benchmark's tracer installed.

Usage: ``python perfbench/serve_traced.py TRACE_OUT serve --store S --port 0``
(with ``src`` on ``PYTHONPATH``).  Runs the unmodified CLI; when the
server stops (``shutdown`` op), writes its spans and counters as JSON to
``TRACE_OUT``.  Spans on evaluation threads carry the cell they serve as
their request id; spans on the event loop carry ``admission``.
"""

import functools
import sys

from spans import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.request = "admission"
    install(tracer)

    import repro.service.server as server
    from repro.cli import main as cli_main

    run_eval_job = server._run_eval_job

    @functools.wraps(run_eval_job)
    def tagged(args):
        workload, platform, kwargs, _ = args[1]
        tracer.set_thread_request(f"{workload.name}@{platform.name}/seed{kwargs['seed']}")
        try:
            return run_eval_job(args)
        finally:
            tracer.set_thread_request(None)

    server._run_eval_job = tagged
    try:
        return cli_main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
