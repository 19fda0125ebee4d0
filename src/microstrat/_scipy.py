"""Compiled scipy modules, each loaded without the package around it.

Importing a scipy subpackage runs its package init, which loads several
other scipy subpackages: `scipy.signal` loads about a dozen, and
`scipy.optimize` loads `scipy.linalg`, `scipy.sparse` and `scipy.special`.
The `vpin`, `garch` and `backtest` commands each need single compiled
routines from these packages, so `extension` loads just the compiled module
that holds each:

- `scipy.signal._sigtools`, lfilter's kernel, for `volatility._ar_filter`
- `scipy.optimize._lbfgsb`, L-BFGS-B's `setulb`, for `volatility._setulb`
- `scipy.special._special_ufuncs`, the normal CDF `ndtr`, for
  `vpin._standalone_ndtr`

`_setulb` and `_standalone_ndtr` return None where their routine is missing
or differs, as on older scipy, and their callers then take the public scipy
import.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def extension(name: str):
    """The compiled scipy module `name`, such as "scipy.signal._sigtools",
    loaded on its own, or ImportError where scipy has no such module.

    It loads only the extension module, once. It goes into `sys.modules`
    under its full name, so a later import of the subpackage reuses it rather
    than loading the extension again.
    """
    module = sys.modules.get(name)
    if module is None:
        import scipy

        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy.__path__[0], *name.split(".")[1:-1])])
        if spec is None:
            raise ImportError(f"scipy has no module {name}", name=name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
