"""Shared fixtures: the frozen copy of the package kept with the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

FROZEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "frozen" / "wojcikwalk"
FROZEN_NAME = "wojcikwalk_frozen"


@pytest.fixture(scope="session")
def frozen():
    """``perfbench/frozen/wojcikwalk`` imported as ``wojcikwalk_frozen``.

    That copy is the package as it was when the benchmark was defined, so it
    serves as the reference for output that must not change.  It is only
    read: no bytecode is written next to it.
    """
    if FROZEN_NAME not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            FROZEN_NAME, FROZEN_DIR / "__init__.py", submodule_search_locations=[str(FROZEN_DIR)]
        )
        package = importlib.util.module_from_spec(spec)
        sys.modules[FROZEN_NAME] = package
        dont_write = sys.dont_write_bytecode
        sys.dont_write_bytecode = True
        try:
            spec.loader.exec_module(package)
            importlib.import_module(f"{FROZEN_NAME}.cli")
        finally:
            sys.dont_write_bytecode = dont_write
    return sys.modules[FROZEN_NAME]
