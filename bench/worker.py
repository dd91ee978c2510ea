"""One workload pass in a fresh interpreter, as a CLI user's invocation is.

Usage: python3 worker.py SRC_DIR MODE, with MODE one of
  setup  only measure set-up: ``import rayleighsums`` plus ``build_parser()``;
  run    also run the requests read as a JSON list of argument lists from
         stdin, in-process through ``rayleighsums.cli.run``;
  trace  as run, with the layer spans of spans.py installed.

Prints one JSON object: set-up seconds, and for run/trace each request's
exit code, output and seconds, the pass's wall seconds, its peak resident
memory and, for trace, each request's span aggregates.
"""

import sys
from time import perf_counter


def peak_rss_mb() -> float:
    """This process's peak resident memory. Unlike getrusage's ru_maxrss,
    VmHWM starts afresh at exec, so the parent's size does not leak in."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    src, mode = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    # Nothing the package imports is loaded before this point, so set-up
    # time is what a user's fresh interpreter pays.
    t0 = perf_counter()
    import rayleighsums
    from rayleighsums import cli

    cli.build_parser()
    setup_s = perf_counter() - t0

    import io
    import json
    import traceback

    result = {"setup_s": setup_s, "package": rayleighsums.__file__}
    if mode != "setup":
        requests = json.load(sys.stdin)
        tracer = None
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        done = []
        start = perf_counter()
        for argv in requests:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.reset()
            t = perf_counter()
            try:
                rc = cli.run(argv, stdout=out, stderr=err)
            except Exception:  # a raising request is a failed request
                rc = None
                err.write(traceback.format_exc())
            seconds = perf_counter() - t
            done.append({
                "rc": rc,
                "out": out.getvalue(),
                "err": err.getvalue(),
                "s": seconds,
                "spans": tracer.snapshot() if tracer is not None else None,
            })
        result["wall_s"] = perf_counter() - start
        result["peak_rss_mb"] = peak_rss_mb()
        result["requests"] = done
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
