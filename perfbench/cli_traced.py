"""``python -m chebdisk.cli`` with the benchmark's spans installed.

Used by the traced cli run: same arguments, same stdout and exit code as
the real command; the spans and aggregates of the invocation go to stderr
as the last line, in JSON.
"""

import json
import sys

import tracing


def main():
    from chebdisk import cli

    tracer = tracing.Tracer(keep_ops=1)
    tracing.install(tracer)
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps({"spans": tracer.spans, "aggregates": tracer.aggregates()}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
