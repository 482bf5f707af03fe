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
    names = (
        "nag.run", "emreg.run_emreg", "emreg.regress_adjoint",
        "fdsolver.build_operator", "particles.simulate", "particles.estimate_cost",
        "nag.gradient_field", "nag.gradient_slice", "fdsolver.assemble_source",
    )
    calls = {name: tracer.calls(name) for name in names}
    # the PDE sweep: its counters read the operator's system matrix, the
    # measure kernels and the problem callbacks the run builds; Cucker-Smale
    # at beta = 1 has the one kernel that goes through mean_contract
    experiments.execute_run(RunConfig(
        problem="cs2d", method="fipde", cells=10, time_steps=10,
        particles=200, iterations=1, problem_overrides={"beta": 1.0},
    ))
finally:
    tracer.restore()
# one training simulation and one gradient per iteration; the cost rows
# stream their own
assert calls == {
    "nag.run": 1, "emreg.run_emreg": 0, "emreg.regress_adjoint": 2,
    "fdsolver.build_operator": 0, "particles.simulate": 2,
    "particles.estimate_cost": 3, "nag.gradient_field": 2,
    "nag.gradient_slice": 22, "fdsolver.assemble_source": 0,
}, calls
# the PDE run's own calls of the gradient layers, whose per-layer metrics
# read 0 if a layer stops going through its traced name
pde_gradient = {
    name: tracer.calls(name) - calls[name]
    for name in ("nag.gradient_field", "nag.gradient_slice", "fdsolver.assemble_source")
}
assert pde_gradient == {
    "nag.gradient_field": 1, "nag.gradient_slice": 11, "fdsolver.assemble_source": 10,
}, pde_gradient
pde = {name: tracer.calls(name) for name in (
    "fdsolver.backward_sweep", "fdsolver.build_operator", "fdsolver.solve",
    "measures.mean_contract", "problems.callbacks",
)}
assert pde["fdsolver.backward_sweep"] == 1, pde
assert all(n > 0 for n in pde.values()), pde
assert tracer.counts["fdsolver.system_nnz"] > 0, dict(tracer.counts)
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


CONFIGS_SCRIPT = """
import sys
import tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run

run.import_package()
from mfcontrol.config import parse_config

caps = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, text in run.CONFIGS.items():
        path = Path(tmp) / f"{name}.cfg"
        path.write_text(text)
        config = parse_config(path)
        problem, grid = config.build()
        assert problem.kernel_subsample == config.kernel_subsample, name
        caps[name] = problem.kernel_subsample
assert caps == {"portfolio": None, "portfolio-emreg": None, "cs-beta10": 500}, caps
print("ok")
"""


def test_every_workload_config_parses_and_builds():
    # cs-beta10 still spells its cap as problem.kernel_subsample as well;
    # both spellings must keep parsing to the one cap of the problem
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CONFIGS_SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
