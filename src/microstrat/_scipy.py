"""The one module that knows where scipy keeps the routines microstrat calls.

Importing a scipy subpackage runs its package init, which loads several
other scipy subpackages: `scipy.signal` loads about a dozen, and
`scipy.optimize` loads `scipy.linalg`, `scipy.sparse` and `scipy.special`.
So each accessor loads, through `extension`, just the compiled module that
holds its routine, and resolves the routine once:

- `linear_filter`, lfilter's kernel, from `scipy.signal._sigtools`
- `setulb`, L-BFGS-B's kernel, from `scipy.optimize._lbfgsb`, or None where
  it differs, as on older scipy, and the GARCH fit then calls `minimize`
- `special(name)`, a ufunc such as `ndtr`, from
  `scipy.special._special_ufuncs`, or from the `scipy.special` package where
  that module lacks it, as on scipy 1.9
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

# The compiled kernel's signature that `volatility._lbfgsb` is written
# against, as the first line of its docstring; it is scipy 1.17's C kernel.
_SETULB_SIGNATURE = ("setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,"
                     "isave,dsave,maxls,ln_task)")


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


@functools.cache
def special(name: str):
    """scipy's ufunc `name`, the very object `scipy.special` exports."""
    try:
        return getattr(extension("scipy.special._special_ufuncs"), name)
    except (ImportError, AttributeError):
        import scipy.special

        return getattr(scipy.special, name)


@functools.cache
def linear_filter():
    """`_linear_filter(b, a, x, axis[, zi])`, the compiled kernel that
    `scipy.signal.lfilter` calls whenever len(a) > 1."""
    return extension("scipy.signal._sigtools")._linear_filter


@functools.cache
def setulb():
    """scipy's L-BFGS-B kernel, or None where it is missing or its signature
    is not `_SETULB_SIGNATURE` (older scipy builds it with f2py)."""
    try:
        kernel = extension("scipy.optimize._lbfgsb").setulb
    except (ImportError, AttributeError):
        return None
    doc = kernel.__doc__ or ""
    return kernel if doc.partition("\n")[0] == _SETULB_SIGNATURE else None
