"""Start a ``repro-condor`` verb with the service wrappers installed.

``python -m condorbench.traced_entry SPANS.jsonl serve --db ...`` runs
exactly what ``python -m repro.cli serve --db ...`` runs — same argv, same
topology — after wrapping ``JobDatabase`` and the frame codec.  The CLI's
own SIGTERM handler ends the verb; the spans are written once it returns.
"""

import sys

from condorbench.trace import ServiceTracer


def main(argv):
    from repro import cli

    spans_out, verb_argv = argv[0], argv[1:]
    tracer = ServiceTracer().install()
    try:
        return cli.main(verb_argv)
    finally:
        tracer.remove()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
