"""Record the workloads' inputs and the paper programs' outputs.

Usage, from the root of a checkout::

    python3 perfbench/freeze.py

Rewrites ``perfbench/frozen.json`` (the sha256 of every generated
input, see ``frozen.py``) and ``perfbench/expected/outputs.json`` (each
paper program's output and exit code at -O2 without interprocedural
allocation, which every configuration must reproduce).  Run it only in
a change that means to redefine a workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import edit_loop, frozen, large_program, paper_matrix

    record = {
        paper_matrix.NAME: paper_matrix.freeze_inputs(),
        edit_loop.NAME: edit_loop.freeze_inputs(),
        large_program.NAME: large_program.freeze_inputs(),
    }
    frozen.FROZEN_PATH.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    paper_matrix.EXPECTED_PATH.write_text(
        json.dumps(paper_matrix.expected_outputs(), indent=1,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
