import weakref

import pytest

from nsocp import fe_mesh, sparse_core


class _CountingSplu:
    """Stand-in for a module's ``splu`` that counts the factorisations and
    hands out weakly referenced proxies of them, so a test can see whether
    any is still held; ``served`` collects the attribute names the proxies
    were asked for, ``kwargs`` the keyword arguments of each call and
    ``dtypes`` the dtype of each matrix factorised."""

    def __init__(self, splu):
        self.splu = splu
        self.refs = []
        self.served = set()
        self.kwargs = []
        self.dtypes = []

    @property
    def calls(self):
        return len(self.refs)

    def __call__(self, k, **kwargs):
        self.kwargs.append(kwargs)
        self.dtypes.append(k.dtype)
        factor = _Factor(self.splu(k, **kwargs), self.served)
        self.refs.append(weakref.ref(factor))
        return factor


class _Factor:
    def __init__(self, lu, served):
        self.lu = lu
        self.served = served

    def __getattr__(self, name):
        self.served.add(name)
        return getattr(self.lu, name)


@pytest.fixture
def counting_splu(request, monkeypatch):
    """Counts the ``splu`` calls of one module: ``sparse_core`` unless the
    test parametrises the fixture indirectly with another module."""
    module = getattr(request, "param", sparse_core)
    counting = _CountingSplu(module.splu)
    monkeypatch.setattr(module, "splu", counting)
    return counting


@pytest.fixture
def layouts(monkeypatch):
    """Weak references to the matrix of each ``fe_mesh.PairJacobian`` as it
    is laid out, in order, so a test can count the layouts and see whether
    any is still held."""
    refs = []
    lay_out = fe_mesh.PairJacobian._lay_out

    def recording(self):
        lay_out(self)
        refs.append(weakref.ref(self.matrix))

    monkeypatch.setattr(fe_mesh.PairJacobian, "_lay_out", recording)
    return refs
