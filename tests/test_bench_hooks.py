"""The benchmark's tracer wraps program functions by name and reads fields
of their results; this runs it over certify, verify and oracle-compare in
a fresh interpreter, so that a renamed hook fails here and not only in a
benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import CASES

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import ghcert.cli, ghcert.kostant, ghcert.linalg.matrix
from ghcert.certify import certify, parse_input, verify_certificate
from spans import Tracer, layer_metrics, read_dump, self_times

cases, a1_path, dump_path = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
tracer = Tracer()
tracer.install()
for raw in cases:
    cert = certify(parse_input(raw), raw)
    ok, reasons = verify_certificate(cert, raw)
    assert ok, reasons
rc = ghcert.cli.main(["oracle-compare", a1_path, "--nu", "2", "--degrees", "0..1"])
assert rc == 0, rc
tracer.dump(dump_path)
print(json.dumps(layer_metrics(self_times(read_dump(dump_path)[0]), tracer.counters)))
"""


def test_tracer_hooks_run_on_the_pipeline(tmp_path):
    a1 = tmp_path / "a1_t.json"
    a1.write_text(json.dumps(CASES["a1_t"]))
    cases = [CASES["a2_principal"], CASES["b2_sl2"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(cases), str(a1), str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["parabolic.dim_n_max"] > 0
    assert metrics["parabolic.build_parabolic.calls"] > 0
    assert metrics["genericity.evaluate_genericity.calls"] > 0
    assert metrics["oracle.construct_module.calls"] > 0
