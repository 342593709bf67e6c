"""Array contracts for the simulation kernels.

The kernels in :mod:`repro.sim.fast` rest on assumptions about their
array arguments — dtype, rank, matching lengths, C-contiguity, which
buffers are written, which must not alias.  ``np.asarray`` papers over
some of them with a silent copy or upcast; others fail silently: the
workspace kernels (``_fcfs_waits_into``, ``serve_dispatch_batch``)
write into caller-provided buffers, where an aliased or mis-shaped
buffer corrupts the recursion.  This module makes those assumptions
*declared* and *checkable*:

* :func:`kernel_contract` — a decorator attaching a
  :class:`KernelContract` to a kernel.  The declaration is a plain
  literal, so the static checker (:mod:`repro.devtools.contracts`,
  rules SIM201–SIM205) reads it straight out of the AST and verifies
  every call site against it with dtype/shape flow analysis.
* Runtime cross-check — under ``REPRO_SIM_STRICT=1`` (the same switch
  as the engine sanitizer) every decorated call validates its ndarray
  arguments against the declaration and snapshots non-``writes`` inputs
  read-only for the duration of the call, so an undeclared in-place
  mutation raises immediately.  The static claims are falsifiable: what
  SIM201–SIM205 accept, this validator accepts (see
  ``tests/sim/test_kernel_contract.py``).

Only :class:`numpy.ndarray` arguments are validated.  Lists, scalars
and ``None`` pass through untouched: the kernels convert them via
``np.asarray`` — the contract pins down the ndarray path, not the
convenience coercions.

Declaration syntax (all keywords optional)::

    @kernel_contract(
        shapes={"arrival_times": ("n",), "sizes": ("n",), "return": ("n",)},
        dtypes={"arrival_times": "float64", "sizes": "float64",
                "return": "float64"},
        writes=(),                       # parameters mutated in place
        contiguous=("arrival_times", "sizes"),
    )
    def fcfs_waits(arrival_times, sizes): ...

Shape entries are dimension symbols (unified across parameters and the
return value: every ``"n"`` must agree) or literal ints.  Tuple-valued
returns declare ``"return[0]"``, ``"return[1]"`` … keys.  ``dtypes``
values may be a name or a tuple of admissible names.  Any pair of
ndarray arguments where at least one side is in ``writes`` must be
disjoint in memory (a written buffer aliasing anything else corrupts
the recursion); two read-only inputs may overlap freely, and
``allow_alias`` exempts specific written pairs.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .engine import strict_from_env

__all__ = [
    "ContractViolation",
    "KernelContract",
    "contract_of",
    "contract_validation",
    "kernel_contract",
    "set_contract_validation",
    "validation_enabled",
]

_F = TypeVar("_F", bound=Callable[..., Any])

#: dimension spec: a literal extent or a symbol unified across the call.
DimSpec = int | str


class ContractViolation(ValueError):
    """A kernel call broke its declared array contract.

    Subclasses :class:`ValueError` so callers (and tests) that guard
    against bad kernel inputs with ``except ValueError`` keep working
    when the contract validator fires first.
    """


@dataclass(frozen=True)
class KernelContract:
    """The declared array contract of one kernel."""

    shapes: Mapping[str, tuple[DimSpec, ...]] = field(default_factory=dict)
    dtypes: Mapping[str, str | tuple[str, ...]] = field(default_factory=dict)
    writes: tuple[str, ...] = ()
    contiguous: tuple[str, ...] = ()
    allow_alias: tuple[tuple[str, str], ...] = ()

    def dtype_names(self, name: str) -> tuple[str, ...]:
        """Admissible dtype names for parameter (or return key) ``name``."""
        decl = self.dtypes.get(name)
        if decl is None:
            return ()
        return (decl,) if isinstance(decl, str) else tuple(decl)

    def return_keys(self) -> list[str]:
        """Every declared ``return`` / ``return[i]`` key, sorted."""
        keys = set(self.shapes) | set(self.dtypes) | set(self.contiguous)
        return sorted(k for k in keys if k == "return" or k.startswith("return["))

    def may_alias(self, a: str, b: str) -> bool:
        return (a, b) in self.allow_alias or (b, a) in self.allow_alias


# ----------------------------------------------------------------------
# validation switch (shared with the engine sanitizer)
# ----------------------------------------------------------------------

#: tri-state override: None defers to ``REPRO_SIM_STRICT``.
_VALIDATE: bool | None = None


def validation_enabled() -> bool:
    """Whether decorated kernels validate at call time."""
    if _VALIDATE is not None:
        return _VALIDATE
    return strict_from_env()


def set_contract_validation(enabled: bool | None) -> bool | None:
    """Force validation on/off (``None`` defers to ``REPRO_SIM_STRICT``).

    Returns the previous override so callers can restore it.
    """
    global _VALIDATE
    previous = _VALIDATE
    _VALIDATE = enabled
    return previous


@contextmanager
def contract_validation(enabled: bool | None) -> Iterator[None]:
    """Scoped :func:`set_contract_validation` (tests use this)."""
    previous = set_contract_validation(enabled)
    try:
        yield
    finally:
        set_contract_validation(previous)


# ----------------------------------------------------------------------
# the validator
# ----------------------------------------------------------------------


def _check_array(
    label: str,
    name: str,
    arr: np.ndarray,
    contract: KernelContract,
    dims: dict[str, int],
) -> None:
    """Validate one ndarray against its declared dtype/shape/contiguity."""
    admissible = contract.dtype_names(name)
    if admissible and all(arr.dtype != np.dtype(d) for d in admissible):
        raise ContractViolation(
            f"{label}: {name} has dtype {arr.dtype}, contract declares "
            f"{'/'.join(admissible)} (dtype drift means a silent copy, or "
            "rounding in a written buffer)"
        )
    spec = contract.shapes.get(name)
    if spec is not None:
        if arr.ndim != len(spec):
            raise ContractViolation(
                f"{label}: {name} is {arr.ndim}-D, contract declares "
                f"{len(spec)}-D shape {spec}"
            )
        for dim_spec, extent in zip(spec, arr.shape):
            if isinstance(dim_spec, int):
                if extent != dim_spec:
                    raise ContractViolation(
                        f"{label}: {name} has extent {extent} where the "
                        f"contract declares literal {dim_spec}"
                    )
            else:
                bound = dims.setdefault(dim_spec, extent)
                if bound != extent:
                    raise ContractViolation(
                        f"{label}: dimension {dim_spec!r} is {bound} "
                        f"elsewhere in this call but {name} has {extent} "
                        "(shape mismatch / unintended broadcast)"
                    )
    if name in contract.contiguous and not arr.flags["C_CONTIGUOUS"]:
        raise ContractViolation(
            f"{label}: {name} is not C-contiguous; pass it through "
            "np.ascontiguousarray before the scan"
        )


def _validate_inputs(
    label: str, contract: KernelContract, arguments: Mapping[str, Any]
) -> dict[str, int]:
    """Check every ndarray argument; returns the dimension bindings."""
    dims: dict[str, int] = {}
    arrays: list[tuple[str, np.ndarray]] = [
        (name, value)
        for name, value in arguments.items()
        if isinstance(value, np.ndarray)
    ]
    for name, arr in arrays:
        _check_array(label, name, arr, contract, dims)
    written = set(contract.writes)
    for i, (name_a, a) in enumerate(arrays):
        for name_b, b in arrays[i + 1 :]:
            if contract.may_alias(name_a, name_b):
                continue
            if name_a not in written and name_b not in written:
                continue  # two read-only inputs may share memory safely
            # `a is b` matters: may_share_memory is False for size-0
            # arrays, but the same object is an alias at any size.
            if a is b or np.may_share_memory(a, b):
                raise ContractViolation(
                    f"{label}: {name_a} and {name_b} share memory; the "
                    "contract requires disjoint buffers (aliasing between "
                    "input and scratch corrupts the recursion)"
                )
    return dims


def _validate_result(
    label: str, contract: KernelContract, result: Any, dims: dict[str, int]
) -> None:
    for key in contract.return_keys():
        if key == "return":
            value = result
        else:
            index = int(key[len("return[") : -1])
            if not isinstance(result, tuple) or index >= len(result):
                raise ContractViolation(
                    f"{label}: contract declares {key} but the kernel did "
                    "not return a matching tuple"
                )
            value = result[index]
        if isinstance(value, np.ndarray):
            _check_array(label, key, value, contract, dims)


def _freeze_readonly(
    contract: KernelContract, arguments: Mapping[str, Any]
) -> list[tuple[np.ndarray, bool]]:
    """Mark non-``writes`` ndarray arguments read-only; returns undo info.

    Any in-place mutation of a caller-visible array the contract does
    not declare then raises inside the kernel itself — an exact runtime
    twin of the static SIM202 check, with no O(n) snapshotting.
    """
    guards: list[tuple[np.ndarray, bool]] = []
    seen: set[int] = set()
    for name, value in arguments.items():
        if name in contract.writes or not isinstance(value, np.ndarray):
            continue
        if id(value) in seen:
            continue
        seen.add(id(value))
        guards.append((value, bool(value.flags.writeable)))
        value.flags.writeable = False
    return guards


def _restore_writeable(guards: Sequence[tuple[np.ndarray, bool]]) -> None:
    for arr, writeable in guards:
        arr.flags.writeable = writeable


def kernel_contract(
    *,
    shapes: Mapping[str, tuple[DimSpec, ...]] | None = None,
    dtypes: Mapping[str, str | tuple[str, ...]] | None = None,
    writes: tuple[str, ...] = (),
    contiguous: tuple[str, ...] = (),
    allow_alias: tuple[tuple[str, str], ...] = (),
) -> Callable[[_F], _F]:
    """Declare a kernel's array contract (see the module docstring).

    The declaration must be spelled with literal dicts/tuples — the
    static checker reads it from the AST, and a computed declaration
    would be invisible to it.
    """
    contract = KernelContract(
        shapes=dict(shapes or {}),
        dtypes=dict(dtypes or {}),
        writes=tuple(writes),
        contiguous=tuple(contiguous),
        allow_alias=tuple(allow_alias),
    )

    def decorate(fn: _F) -> _F:
        signature = inspect.signature(fn)
        label = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not validation_enabled():
                return fn(*args, **kwargs)
            arguments = signature.bind(*args, **kwargs).arguments
            dims = _validate_inputs(label, contract, arguments)
            guards = _freeze_readonly(contract, arguments)
            try:
                result = fn(*args, **kwargs)
            finally:
                _restore_writeable(guards)
            _validate_result(label, contract, result, dims)
            return result

        wrapper.__kernel_contract__ = contract  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def contract_of(fn: Callable[..., Any]) -> KernelContract | None:
    """The :class:`KernelContract` attached to ``fn``, if any."""
    return getattr(fn, "__kernel_contract__", None)
