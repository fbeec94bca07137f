"""One eulerprod CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 bench/child.py RESULT_JSON TRACE -- [CLI_ARGS...]

Imports ``eulerprod.cli`` (timed as set-up), then calls ``cli.main(CLI_ARGS)``
(timed as wall); with no CLI_ARGS it stops after the import.  With TRACE = 1
the layer wrappers are installed between the two, and the spans are written
into the result.  The result file holds one JSON object; the CLI's own
stdout and stderr pass through untouched.
"""

import json
import os
import resource
import sys
from time import perf_counter


def main() -> None:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        sys.exit(__doc__)
    start = perf_counter()
    import eulerprod.cli as cli

    result = {"setup_s": perf_counter() - start, "threads": os.cpu_count(), "rc": 0}
    if argv:
        tracer = None
        if trace == "1":
            import layers
            from spans import Tracer

            tracer = Tracer()
            result["installed"] = layers.install(tracer)
        start = perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call(layers.MAIN, cli.main, (argv,))
        result["wall_s"] = perf_counter() - start
        result["rc"] = rc
        if tracer is not None:
            result["spans"] = [
                [s.id, s.parent, s.name, s.thread, s.start, s.end, s.attrs]
                for s in tracer.spans
            ]
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
