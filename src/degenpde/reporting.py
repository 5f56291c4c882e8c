"""Deterministic artifact writers: JSON reports, field CSVs, manifests.

Every float prints with 17 significant digits and dictionary keys are
sorted, so a rerun with the same seed produces byte-identical files. No
timestamps are written anywhere. ``_serialize`` is the one rule that turns
values into JSON: a report dataclass is the mapping of its fields, a field
left None is absent, and tuples, numpy arrays and numpy scalars print as
lists and numbers.
"""

import dataclasses
import os
import warnings

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .solver import GridSpec, SolutionField

__all__ = [
    "format_float",
    "dumps_json",
    "write_json",
    "write_field_csv",
    "read_field_csv",
    "write_table_csv",
]


# Rows formatted per write in ``write_table_csv``: enough to amortize the
# per-block cost, few enough that memory does not grow with the table.
CSV_BLOCK_ROWS = 1024


def format_float(x):
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _serialize(obj, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        obj = {name: value for name, value in fields if value is not None}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj.keys()):
            items.append(f'{pad_in}"{key}": {_serialize(obj[key], level + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{_serialize(v, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _serialize(obj.tolist(), level)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    raise ContractViolationError("object not serializable", type=str(type(obj)))


def dumps_json(obj):
    return _serialize(obj, 0) + "\n"


def write_json(path, obj):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))
    return path


def write_table_csv(path, header, columns):
    """Write aligned columns with 17-significant-digit floats.

    Rows are formatted a block at a time with one ``%.17g`` template, which
    prints the digits of ``format_float``; its spellings of NaN and the
    infinities are restored on each block's text.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    n = len(cols[0])
    for c in cols:
        if len(c) != n:
            raise ContractViolationError("column lengths differ")
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            block = zip(*(c[lo : lo + CSV_BLOCK_ROWS].tolist() for c in cols))
            body = "".join([row % r for r in block])
            fh.write(body.replace("nan", "NaN").replace("inf", "Infinity"))
    return path


def _coordinate_columns(grid):
    """The (t, x1..xN) columns of a field export: time-major, C-ordered."""
    mesh = grid.mesh().reshape(-1, grid.dim)
    m1 = grid.steps + 1
    return [np.repeat(grid.times, mesh.shape[0])] + [np.tile(mesh[:, i], m1) for i in range(grid.dim)]


def write_field_csv(field, path):
    """Field export with columns (t, x1..xN, u), time-major and C-ordered."""
    grid = field.grid
    u_col = field.values.reshape(-1)
    header = ["t"] + [f"x{i + 1}" for i in range(grid.dim)] + [field.variable]
    return write_table_csv(path, header, _coordinate_columns(grid) + [u_col])


def read_field_csv(path):
    """Rebuild a SolutionField from ``write_field_csv``'s export (no equation
    attached). Any other table is a configuration error that names the path:
    its coordinate columns must be, bit for bit, those of the export of the
    grid they span."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    dim = len(header) - 2
    if dim < 1 or header[0] != "t":
        raise ConfigurationError("unrecognized field CSV header", header=header)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns on an empty body
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (ValueError, UserWarning) as err:
        raise ConfigurationError("field CSV is not a table of numbers", path=path, reason=str(err)) from None
    if data.shape[1] != dim + 2:
        raise ConfigurationError("field CSV rows do not match its header", path=path, columns=data.shape[1])
    times = np.unique(data[:, 0])
    axes = [np.unique(data[:, 1 + i]) for i in range(dim)]
    try:
        grid = GridSpec(
            dim=dim,
            half_width=tuple(float(ax[-1]) for ax in axes),
            nodes=tuple(len(ax) for ax in axes),
            steps=len(times) - 1,
            horizon=float(times[-1]),
        )
    except ContractViolationError as err:
        raise ConfigurationError("field CSV does not span a grid", path=path, reason=str(err)) from None
    if not all(np.array_equal(data[:, j], col) for j, col in enumerate(_coordinate_columns(grid))):
        raise ConfigurationError("field CSV is not the export of the grid it spans", path=path)
    values = data[:, -1].reshape((grid.steps + 1,) + grid.shape)
    return SolutionField(values, grid, problem=None, variable=header[-1])
