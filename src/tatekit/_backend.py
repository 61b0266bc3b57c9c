"""The elimination kernels, under the module name the package imports.

``exactlin`` calls the kernels through this module, the only one that
does, and ``tatebench`` reads ``BACKEND`` and traces the names bound
here.
"""

from ._elim_py import hermite, smith_diagonal

BACKEND = "pure"
