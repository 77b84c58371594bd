"""Run one skewrel CLI command in this fresh interpreter and time it.

    python3 -I bench/child.py ROOT OUT_FILE SPANS_FILE -- ARGV...

Imports ``skewrel.cli`` from ROOT/src, then takes the CPU time this process
spends in ``cli.main(ARGV)`` from call to return (``time.process_time``), with
stdout and stderr captured; the captured stdout goes to
OUT_FILE. SPANS_FILE ``-`` runs untraced; otherwise the layer wrappers of
``tracing`` are installed after the import and the spans and counters are
written to SPANS_FILE when the command has returned. The last line printed
is a JSON object with the exit code, the ``time.perf_counter`` reading when
the import finished (CLOCK_MONOTONIC, comparable with the parent's), and the
CPU seconds of the timed span.
"""

import os
import sys
import time


def main() -> int:
    root, out_path, spans_path, dash = sys.argv[1:5]
    argv = sys.argv[5:]
    if dash != "--":
        print("usage: child.py ROOT OUT_FILE SPANS_FILE -- ARGV...", file=sys.stderr)
        return 2
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import skewrel.cli as cli
    ready = time.perf_counter()

    import contextlib
    import io
    import json

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print("skewrel was imported from %s, not from %s" % (cli.__file__, src),
              file=sys.stderr)
        return 2
    run, tracer = cli.main, None
    if spans_path != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.span("cli.main", cli.main)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        try:
            rc = run(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:    # a traceback is a failure to report, not to die of
            rc = -1
            err.write("%s: %s\n" % (type(exc).__name__, exc))
        end = time.process_time()

    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(out.getvalue())
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "maxima": tracer.maxima}, handle)
    print(json.dumps({"rc": rc, "ready": ready, "main_s": end - start,
                      "stderr": err.getvalue()[-2000:]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
