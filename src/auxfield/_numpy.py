"""numpy for every auxfield module, imported at the first attribute lookup.

Every module but ``cli`` (whose one array it makes with a local import)
binds ``from ._numpy import np``.  ``np.name`` imports numpy when first
needed and keeps ``numpy.name`` on the handle, so a later lookup is a
plain attribute lookup.  ``import auxfield`` and the commands that
evaluate with ``math`` alone never load numpy, and ``sys.modules["numpy"]``
is numpy's own module throughout.
"""

__all__ = ["np"]


class _Numpy:
    def __getattr__(self, name):
        if name.startswith("__"):  # probes such as __wrapped__ load nothing
            raise AttributeError(name)
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
