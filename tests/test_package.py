import pytest

import graphamp
import graphamp.models


@pytest.mark.parametrize("module", [graphamp, graphamp.models],
                         ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
