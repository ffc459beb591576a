"""Run one dereverb CLI command in-process with timing spans.

Usage: python traced_cli.py SPANS_JSON ARGV...

Times the import of `dereverb.cli` in this fresh process (cli.import_s),
installs the wraps of tracing.py, runs `dereverb.cli.main(ARGV)` and writes
{"import_s", "exit_code", "spans"} to SPANS_JSON. Exits with main's code.
"""
import json
import sys
import time


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import dereverb.cli
    import_s = time.perf_counter() - start

    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = dereverb.cli.main(cli_argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "exit_code": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
