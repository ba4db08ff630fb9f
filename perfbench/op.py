"""One steepsim CLI call in a fresh interpreter, with what it cost.

Usage: python3 perfbench/op.py SPEC

SPEC is a JSON object: "src" (the directory holding the steepsim package),
"config" (the config file the call reads), "argv" (the arguments for
steepsim.cli.main), "result" (where this process writes its measurements)
and "trace_dir" (null, or where the spans of a traced call go). The process
exits with the call's exit code.
"""
import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t_import = time.monotonic_ns()
    import steepsim.cli as cli

    t_imported = time.monotonic_ns()
    cli.parse_settings(cli.load_config_file(spec["config"]))
    t_ready = time.monotonic_ns()

    tracer = None
    if spec["trace_dir"]:
        import tracer as tracing

        tracer = tracing.install(spec["trace_dir"])
    t_call = time.monotonic_ns()
    rc = cli.main(spec["argv"])
    t_done = time.monotonic_ns()
    sys.stdout.flush()
    if tracer is not None:
        tracer.flush()

    # Pool workers have been joined, so RUSAGE_CHILDREN covers them
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(spec["result"], "w", encoding="ascii") as f:
        json.dump(
            {
                "rc": rc,
                "module": cli.__file__,
                "ready_ns": t_ready,
                "import_s": (t_imported - t_import) / 1e9,
                "call_s": (t_done - t_call) / 1e9,
                "peak_rss_mb": peak_kb / 1024.0,
            },
            f,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
