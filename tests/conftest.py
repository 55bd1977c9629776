import argparse

import numpy as np
import pytest

from tunneltimes.cli import build_parser
from tunneltimes.scattering import Barrier


@pytest.fixture(scope="session")
def barrier():
    """The reference barrier used throughout: a=15, m=1, 2mV=1."""
    return Barrier.from_two_mv(1.0, 15.0, 1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def command_flags():
    """Each CLI command -> the set of option strings its subparser accepts."""
    sub, = (action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    return {name: {flag for action in parser._actions
                   for flag in action.option_strings} - {"-h", "--help"}
            for name, parser in sub.choices.items()}
