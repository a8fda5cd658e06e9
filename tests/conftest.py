import sys

import pytest

from homoperad import terms


@pytest.fixture
def end_tables_built(monkeypatch):
    """A list that grows by one for every end table built: ``subterm_ends``
    is wrapped in every homoperad module that binds it."""
    built = []
    ends = terms.subterm_ends

    def counting(*args):
        built.append(args)
        return ends(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "homoperad" and getattr(mod, "subterm_ends", None) is ends:
            monkeypatch.setattr(mod, "subterm_ends", counting)
    return built
