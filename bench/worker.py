"""One fresh benchmark process: time set-up, or run one pass of a workload.

    python3 bench/worker.py setup SPEC.json
    python3 bench/worker.py pass SPEC.json [--trace]

SPEC.json (written by run.py) names the package source directory, the
configs a workload loads and its ops.  The result is one JSON line on
stdout; the ops' own stdout and stderr are captured, never printed.

Each timed region (set-up, and every op of a pass) lies between two runs
of a fixed reference loop whose times are reported beside it, so run.py
can rescale the region to a fixed machine speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import struct
import sys
import time
import traceback
from pathlib import Path

REF_ITERATIONS = 20_000


def _ref_key(values):
    return struct.pack(">I", len(values)) + b"".join(v.to_bytes(2, "big") for v in values)


def reference_s() -> float:
    """Seconds for a fixed loop of the tuple, bytes-key and dict work the program does."""
    start = time.perf_counter()
    seen = {}
    for i in range(REF_ITERATIONS):
        key = _ref_key((i % 211, i % 17, i & 7))
        seen[key] = seen.get(key, 0) + 1
    sorted(seen)
    return time.perf_counter() - start


def setup(spec) -> dict:
    """Seconds from before ``import mvgroups`` until every instance is built."""
    reference_s()  # warm-up
    before = reference_s()
    start = time.perf_counter()
    from mvgroups.wordspec import load_instance

    for config in spec["configs"]:
        load_instance(config)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "ref_s": [before, reference_s()]}


def run_pass(spec, trace=False) -> dict:
    import mvgroups
    from mvgroups import cli

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    reference_s()  # warm-up
    ref_s = [reference_s()]
    op_s = []
    captured = []
    for index, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(op["argv"]))
            except Exception:  # an escaped exception is a failed op, not a crashed pass
                traceback.print_exc()
                code = None
        op_s.append(time.perf_counter() - start)
        ref_s.append(reference_s())
        captured.append((code, out.getvalue(), err.getvalue()))

    result = {
        "package": str(Path(mvgroups.__file__).resolve().parent),
        "op_s": op_s,
        "ref_s": ref_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [{"label": op["label"], "exit": code,
                 "sha256": hashlib.sha256(out.encode()).hexdigest(),
                 "stderr": err[-400:]}
                for op, (code, out, err) in zip(spec["ops"], captured)],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["call_graph"] = tracer.call_graph()
        result["missing"] = tracer.missing
    return result


def main(argv):
    mode, spec_path = argv[0], argv[1]
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    if mode == "setup":
        result = setup(spec)
    else:
        result = run_pass(spec, trace="--trace" in argv[2:])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
