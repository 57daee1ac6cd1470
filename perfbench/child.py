"""One benchmark sample: a fresh interpreter that runs ``toricqet.cli.main`` once.

Usage: ``python3 child.py '<spec JSON>'`` with keys ``argv`` (the CLI
arguments), ``trace`` (wrap the layers and report their metrics) and
``spans_out`` (where a traced sample writes its spans, or null).

The CLI's standard output is captured, and the last line this process
prints is one JSON object: exit code, captured output, wall time of
``main``, and in a traced sample the per-layer metrics.
"""

import contextlib
import io
import json
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    import toricqet.cli as cli

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        metric_of = spans.install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        code = cli.main(spec["argv"])
        wall_s = time.perf_counter() - start

    import numpy

    result = {
        "exit_code": code,
        "stdout": captured.getvalue(),
        "wall_s": wall_s,
        "cli_file": cli.__file__,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, metric_of)
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"], {"argv": spec["argv"]})
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
