import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def g2():
    from treegrp.subgroups import full_group

    return full_group(2)


@pytest.fixture(scope="session")
def g3():
    from treegrp.subgroups import full_group

    return full_group(3)


@pytest.fixture(scope="session")
def g4():
    from treegrp.subgroups import full_group

    return full_group(4)


@pytest.fixture
def run_optimized():
    """Runs a script under `python -O`; the script fails if asserts are still active."""
    import treegrp

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(treegrp.__file__)), env.get("PYTHONPATH", "")]
    )

    def run(script: str) -> subprocess.CompletedProcess:
        script = 'assert False, "asserts are active"\n' + textwrap.dedent(script)
        return subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env)

    return run
