"""The benchmark harness still finds every name it traces.

perfbench/run.py wraps package functions on the module or instance that
their callers look them up on.  A name that the package stops binding
makes every traced benchmark run fail, so the harness's own
`install_tracing` is run here, read-only, in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import run
from tracer import Tracer

run.import_package()
from mfcontrol import experiments
from mfcontrol.config import RunConfig

tracer = Tracer()
run.install_tracing(tracer)
try:
    for name in ("portfolio", "cs2d"):
        RunConfig(problem=name).build()
    # the regression runs inside nag.run and is traced on emreg
    experiments.execute_run(RunConfig(
        problem="portfolio", method="emreg", cells=10, time_steps=10,
        particles=200, iterations=2,
    ))
finally:
    tracer.restore()
calls = {name: tracer.calls(name) for name in (
    "nag.run", "emreg.run_emreg", "emreg.regress_adjoint",
    "fdsolver.build_operator", "particles.simulate",
)}
assert calls == {
    "nag.run": 1, "emreg.run_emreg": 0, "emreg.regress_adjoint": 2,
    "fdsolver.build_operator": 0, "particles.simulate": 5,
}, calls
print("ok")
"""


def test_install_tracing_binds_every_traced_name():
    # -B: no bytecode is written into perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
