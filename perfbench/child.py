"""One ghcert process of the benchmark.

    python3 perfbench/child.py SPEC.json

SPEC names a mode, its requests, where to write the result and, when
traced, where to write the spans. Modes:

- setup: import `ghcert.cli` and stop; the parent times spawn to ready.
- cli:   call `ghcert.cli.main(argv)` once, as `ghc` would.
- batch: one library process; `certify` then `verify_certificate` on each
         input, sharing the algebras the program caches in-process.

Each request is timed around the call, so interpreter start is excluded.
While it runs, a SpeedProbe samples the machine's speed for `total_ref`.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import traceback
from fractions import Fraction
from time import perf_counter


class SpeedProbe:
    """Measures how fast the machine runs while a request runs.

    On a shared machine the speed of this core swings by up to 2x within
    seconds. Every PERIOD seconds of wall time a SIGALRM handler, which
    Python runs between the request's bytecodes, times a short reference
    loop of Fraction products over a 10k-element pool (about a megabyte,
    so that, like ghcert's work, it feels contention for the caches). The loop's time during the request is the
    unit of `total_ref`; the handler's own time is taken out of the
    request's seconds. Traced runs turn the probe off, so that spans hold
    only the program's time."""

    PERIOD = 0.05

    def __init__(self, enabled):
        self.enabled = enabled
        self.pool = [Fraction(i % 97 - 48, i % 13 + 1) for i in range(10000)] if enabled else []
        self.samples, self.spent = [], 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        pool, s = self.pool, Fraction(0)
        for i in range(0, 10000, 33):
            s += pool[i] * pool[i * 7 % 10000]
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._tick(None, None)  # so that even a short request has a sample


def timed(call, probing):
    """(value, error, seconds, probe samples) of one request."""
    probe = SpeedProbe(probing)
    start = perf_counter()
    try:
        with probe:
            value, error = call(), None
    except Exception:  # a crash is a failed request, reported to the parent
        value, error = None, traceback.format_exc(limit=3)
    return value, error, perf_counter() - start - probe.spent, probe.samples


def _cli(spec, result):
    from ghcert.cli import main

    out = io.StringIO()

    def call():
        with contextlib.redirect_stdout(out):
            return main(spec["argv"])

    code, error, seconds, probe = timed(call, not spec["trace"])
    result["requests"].append({"seconds": seconds, "probe": probe, "exit": code,
                               "error": error, "stdout": out.getvalue()})


def _batch(spec, result, tracer):
    from ghcert.certify import canonical_json, certify, parse_input, verify_certificate

    for item in spec["items"]:
        raw = item["input"]
        if tracer is not None:
            tracer.request = item["id"]
        text, error, seconds, probe = timed(
            lambda: canonical_json(certify(parse_input(raw), raw)) + "\n", tracer is None)
        result["requests"].append({"seconds": seconds, "probe": probe, "error": error,
                                   "cert": text})
        if text is None:
            continue
        checked, error, seconds, probe = timed(
            lambda: verify_certificate(json.loads(text), raw), tracer is None)
        ok, reasons = checked or (False, [])
        result["requests"].append({"seconds": seconds, "probe": probe, "error": error,
                                   "valid": ok, "reasons": reasons})


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import ghcert.cli  # noqa: F401  (the set-up being timed)

    result = {"ready": perf_counter(), "requests": []}
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.request = spec.get("request")
        tracer.install()
    if spec["mode"] == "cli":
        _cli(spec, result)
    elif spec["mode"] == "batch":
        _batch(spec, result, tracer)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spec["trace"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
