"""The machine that the byte pins in the tests were taken on.

Training and eval bits depend on numpy and its BLAS, so a test that pins
bytes first calls skip_unless_reference_machine, which skips it and names
every key that differs here.
"""

import numpy as np
import pytest

REFERENCE_MACHINE = {"numpy": "2.4.6", "blas name": "scipy-openblas",
                     "blas version": "0.3.31.188.0"}


def machine_keys():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas name": blas.get("name"),
            "blas version": blas.get("version")}


def skip_unless_reference_machine(what):
    differ = [f"{key} is {value!r}, pinned {REFERENCE_MACHINE[key]!r}"
              for key, value in machine_keys().items() if value != REFERENCE_MACHINE[key]]
    if differ:
        pytest.skip(f"{what} are pinned for another machine: " + "; ".join(differ))
