"""Deterministic artifact writers: JSON reports, field CSVs, manifests.

Every float prints with 17 significant digits and dictionary keys are
sorted, so a rerun with the same seed produces byte-identical files. No
timestamps are written anywhere.
"""

import os

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


def _serialize(obj, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj.keys()):
            items.append(f'{pad_in}"{key}": {_serialize(obj[key], indent, level + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{_serialize(v, indent, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _serialize(obj.tolist(), indent, level)
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


def dumps_json(obj, indent=2):
    return _serialize(obj, indent, 0) + "\n"


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


def write_field_csv(field, path):
    """Field export with columns (t, x1..xN, u), time-major and C-ordered."""
    grid = field.grid
    mesh = grid.mesh().reshape(-1, grid.dim)
    n_nodes = mesh.shape[0]
    m1 = grid.steps + 1
    t_col = np.repeat(field.times, n_nodes)
    coord_cols = [np.tile(mesh[:, i], m1) for i in range(grid.dim)]
    u_col = field.values.reshape(m1 * n_nodes)
    header = ["t"] + [f"x{i + 1}" for i in range(grid.dim)] + [field.variable]
    return write_table_csv(path, header, [t_col] + coord_cols + [u_col])


def read_field_csv(path, variable=None):
    """Rebuild a SolutionField from the CSV export (no equation attached)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    dim = len(header) - 2
    if dim < 1 or header[0] != "t":
        raise ConfigurationError("unrecognized field CSV header", header=header)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    times = np.unique(data[:, 0])
    axes = [np.unique(data[:, 1 + i]) for i in range(dim)]
    shape = tuple(len(ax) for ax in axes)
    expected = len(times) * int(np.prod(shape))
    if data.shape[0] != expected:
        raise ConfigurationError(
            "field CSV is not a full tensor grid", rows=data.shape[0], expected=expected
        )
    for ax in axes + [times]:
        d = np.diff(ax)
        if len(d) and not np.allclose(d, d[0], rtol=1e-9, atol=1e-12):
            raise ConfigurationError("field CSV grid is not uniform")
    grid = GridSpec(
        dim=dim,
        half_width=tuple(float(ax[-1]) for ax in axes),
        nodes=shape,
        steps=len(times) - 1,
        horizon=float(times[-1]),
    )
    values = data[:, -1].reshape((len(times),) + shape)
    return SolutionField(values, grid, problem=None, variable=variable or header[-1])
