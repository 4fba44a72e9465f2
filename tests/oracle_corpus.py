"""The programs the exactness oracles sweep.

The local-pass, DCE, interference, lexer and executable-image oracles
(``tests/opt/scan_passes.py``, ``tests/opt/sweep_dce.py``,
``tests/backend/set_interference.py``, ``tests/lang/char_lexer.py``,
``tests/linker/json_image.py``) are compared with ``src/`` over:

* the seven workloads at -O1 and -O2;
* the progen seeds of the fuzz sweep (``SEEDS``, which
  ``REPRO_FUZZ_SEEDS`` widens), at -O2;
* every state of three 24-step ``FuzzProgramGenerator.mutate`` chains,
  at -O2.
"""

import pytest

from repro.verify.progen import FuzzProgramGenerator, generate_fuzz_program
from repro.workloads import all_workloads, get_workload
from tests.fuzz.test_progen_differential import SEEDS

CHAINS = (0, 1, 2)
CHAIN_STEPS = 24


def mutate_chain(program: int) -> list:
    """Sources of ``program`` before and after each ``mutate`` step."""
    generator = FuzzProgramGenerator(program)
    states = [generator.generate()]
    for step in range(1, CHAIN_STEPS + 1):
        states.append(generator.mutate(states[-1], step))
    return states


def programs() -> list:
    """``pytest.param(list of source dicts, opt level)`` per corpus
    entry; a chain is one entry holding all of its states."""
    params = []
    for name in all_workloads():
        for opt_level in (1, 2):
            params.append(pytest.param(
                lambda name=name: [get_workload(name).sources], opt_level,
                id=f"{name}-O{opt_level}",
            ))
    for seed in SEEDS:
        params.append(pytest.param(
            lambda seed=seed: [generate_fuzz_program(seed)], 2,
            id=f"progen{seed}",
        ))
    for program in CHAINS:
        params.append(pytest.param(
            lambda program=program: mutate_chain(program), 2,
            id=f"chain{program}",
        ))
    return params
