"""The elimination kernels, under the module name the package imports.

``exactlin``, ``modpres``, ``resolve`` and ``tate`` import the kernels
from here, and ``tatebench`` reads ``BACKEND`` and traces the names
bound here.
"""

from ._elim_py import hermite, smith_diagonal

BACKEND = "pure"
