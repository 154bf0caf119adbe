"""One measured fatkpp call in a fresh interpreter.

    python3 child.py <setup|run|trace> <config.json> <out dir> <result.json>

`run.py` starts this script once per operation so that set-up time and
peak resident size belong to one experiment.  It times, in this order:

- set-up: importing `fatkpp.cli` and one `parse_config`, ending at a
  `time.monotonic()` stamp the parent compares with its own start stamp
  (CLOCK_MONOTONIC is shared by all processes);
- with `run` or `trace`: one `fatkpp.cli.main` call on the config,
  writing into the out dir; with `trace`, the shims of `tracing.py` are
  installed first and the spans are returned.

The result is one JSON object written to result.json.
"""

import json
import resource
import sys
import time


def main(argv):
    mode, config, out, result = argv
    import fatkpp.cli as cli
    from fatkpp.config import parse_config
    parse_config(config)
    res = {"ready": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracing import Tracer, install
            tracer = Tracer()
            install(tracer)
        t0 = time.perf_counter()
        res["rc"] = cli.main(["--config", config, "--out", out, "--quiet"])
        res["wall_s"] = time.perf_counter() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        res["peak_rss_mb"] = rss_kb / 1024.0
        if tracer is not None:
            res["spans"] = tracer.spans
    with open(result, "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
