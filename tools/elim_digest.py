"""Digest of the elimination work each benchmark workload does.

    python3 tools/elim_digest.py

For each workload of ``tatebench/workloads.py`` (tate, syzygy, hyper,
surgery) it runs the operation list once at seed 1, in a fresh
interpreter so the module-level caches start cold, with
``_backend.smith_diagonal`` and ``_backend.hermite`` wrapped at every
binding in the ``tatekit`` modules.  It prints one line per workload:
the number of kernel calls, the total number of nonzero entries over
their inputs, one SHA-256 over every input, each taken before the
kernel consumes it as the kernel name, the rows with their key order,
and ``ncols``, and two SHA-256 over the diagonals ``smith_diagonal``
returns: ``out`` in call order, ``sorted`` over the list of per-call
diagonals sorted.  A refactor that leaves the elimination work alone
prints the same lines before and after; when the input digest changes,
the nonzero count shows whether the kernels were handed more or less.
A change of pivot order legitimately moves the input digest of later
kernel calls.  So does a kernel that reports more unit pivot rows: a
chain then hands the next map fewer columns, which moves the input
digest and lowers the nonzero count, but never ``out`` or ``sorted``.
A chain read in the other direction (its maps transposed) moves the
call order and so ``out``, but the diagonals are invariants of each
map, so the ``sorted`` digest must not move while the same maps are
reduced.  A change that reduces fewer maps, such as a
table that no longer reads its top map or a certificate that checks a
map's entries against a rule instead of reducing its expansion,
legitimately moves ``sorted`` too; then the call count and the tables
themselves are what to compare.  So does a table that first reduces
the differentials of its coefficient complex, in one acyclic pass each
on their rows, to trim its totalization, as hyper tables do: more
calls, far fewer nonzeros, and the same diagonals for the
totalization's maps, with those of the coefficient reductions added.

``tatekit`` is imported from the ``src`` next to this script and the
workloads are only read, never changed.
"""

import hashlib
import multiprocessing
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tate", "syzygy", "hyper", "surgery")
SEED = 1


def _wrap_kernels(digest, out_digest, diagonals, counter):
    """Rebind both kernels in every loaded tatekit module to a wrapper
    that feeds each input into ``digest`` and counts the call and the
    input's nonzero entries in ``counter`` before calling the kernel,
    and feeds each Smith diagonal into ``out_digest`` and appends it to
    ``diagonals``."""
    from tatekit import _backend

    originals = {id(fn): fn for fn in (_backend.smith_diagonal, _backend.hermite)}
    wrappers = {}
    for fn in originals.values():

        def wrapper(rows, ncols, *rest, fn=fn):
            counter[0] += 1
            counter[1] += sum(len(row) for row in rows)
            data = (fn.__name__, [list(row.items()) for row in rows], ncols)
            digest.update(repr(data).encode())
            result = fn(rows, ncols, *rest)
            if fn.__name__ == "smith_diagonal":
                out_digest.update(repr(result).encode())
                diagonals.append(list(result))
            return result

        wrappers[id(fn)] = wrapper
    for name, module in list(sys.modules.items()):
        if name == "tatekit" or name.startswith("tatekit."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)] is obj:
                    setattr(module, attr, wrappers[id(obj)])


def elim_digest(workload):
    """Kernel call count, input nonzero count, input digest and the
    call-order and sorted Smith diagonal digests of one pass of
    ``workload``."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tatebench")]
    import tatekit  # noqa: F401  (loads every module before wrapping)
    import workloads

    digest, out_digest, diagonals, counter = hashlib.sha256(), hashlib.sha256(), [], [0, 0]
    _wrap_kernels(digest, out_digest, diagonals, counter)
    for op in workloads.build(workload, SEED):
        op.run()
    order_free = hashlib.sha256(repr(sorted(diagonals)).encode()).hexdigest()
    return counter[0], counter[1], digest.hexdigest(), out_digest.hexdigest(), order_free


def main():
    # Spawned workers inherit the environment; the benchmark fixes the
    # hash seed the same way.
    os.environ["PYTHONHASHSEED"] = "0"
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1, maxtasksperchild=1) as pool:
        results = pool.map(elim_digest, WORKLOADS, chunksize=1)
    for workload, (calls, nnz, sha, out, order_free) in zip(WORKLOADS, results):
        print(
            f"{workload:8} calls {calls:5}  nnz {nnz:8}  sha256 {sha}  out {out}"
            f"  sorted {order_free}"
        )


if __name__ == "__main__":
    main()
