"""Seeded inputs: the columns, the table and the request traces.

Everything a run sends to the program is derived from ``--seed`` here,
so two runs at one seed write identical bytes and send identical request
sequences; they differ only in timing.  Data comes from the program's
own synthetic generators (``repro.data.get_dataset``), which are
deterministic given (name, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import api
from repro.core.constants import ROWGROUP_SIZE
from repro.data import get_dataset

OPS = ("scan", "sum", "range")

#: ingest writes ALP decimals (City-Temp, Stocks-USA, Basel-Temp,
#: Bio-Temp), zero runs (Gov/26) and ALP_rd real doubles (POI-lat).
INGEST_FLOATS = ("City-Temp", "Stocks-USA", "Gov/26", "POI-lat", "Basel-Temp", "Bio-Temp")
INGEST_ROWS = 3 * ROWGROUP_SIZE
#: Its scans, sums and ranges go to every column but Stocks-USA, whose
#: random walk makes zone-map pruning, and so range cost, swing from
#: seed to seed; the other five span every row-group's value range.
INGEST_OP_WEIGHTS = (0.2, 0.0, 0.2, 0.2, 0.2, 0.2)

#: The served columns (none trends, so range cost does not hinge on the
#: seed).  serve-cold weighs them zipf(s=1.8) in this order: City-Temp
#: takes 62% of requests, so p50 falls inside its latency group in any
#: cost order, and POI-lat, the slowest to decode, takes 18%, so p90
#: falls inside its group.  serve-warm and routed weigh the first five
#: equally: with an odd count of equal groups p50 and p90 sit mid-group.
SERVED = ("City-Temp", "POI-lat", "Gov/26", "Basel-Temp", "Food-prices", "Bio-Temp")
SERVED_ROWS = 3 * ROWGROUP_SIZE
ZIPF_S = 1.8
UNIFORM5 = (0.2, 0.2, 0.2, 0.2, 0.2, 0.0)

#: Share of a column a range request selects.
RANGE_SELECTIVITY = 0.01


def served_name(index: int) -> str:
    """The dataset name column ``index`` is served under."""
    return f"c{index}"


def float_columns(names: tuple[str, ...], rows: int, seed: int) -> list[np.ndarray]:
    return [get_dataset(name, n=rows, seed=seed) for name in names]


@dataclass(frozen=True)
class TableInput:
    """The ingest table: float64 + int64 + string + nullable float64."""

    schema: api.Schema
    columns: dict[str, np.ndarray]
    validity: dict[str, np.ndarray]

    @property
    def rows(self) -> int:
        return len(self.columns["ts"])

    def user_bytes(self) -> int:
        """Bytes a user hands over: fixed-width values plus UTF-8 strings."""
        total = 0
        for column in self.schema:
            values = self.columns[column.name]
            if column.type == "string":
                total += sum(len(s.encode("utf-8")) for s in values)
            else:
                total += values.nbytes
        return total


def ingest_table(rows: int, seed: int) -> TableInput:
    rng = np.random.default_rng([seed, 2])
    symbols = np.array([f"SYM{k:03d}" for k in range(64)], dtype=object)
    schema = api.Schema(
        [
            api.Column("price", "float64"),
            api.Column("ts", "int64"),
            api.Column("sym", "string"),
            api.Column("temp", "float64", nullable=True),
        ]
    )
    columns = {
        "price": get_dataset("Food-prices", n=rows, seed=seed),
        "ts": np.cumsum(rng.integers(1, 1_000, rows)).astype(np.int64),
        "sym": symbols[rng.integers(0, symbols.size, rows)],
        "temp": get_dataset("Basel-Temp", n=rows, seed=seed),
    }
    validity = {"temp": rng.random(rows) >= 0.1}
    return TableInput(schema=schema, columns=columns, validity=validity)


@dataclass(frozen=True)
class Request:
    """One op of a trace; ``low``/``high`` are set for range requests."""

    op: str
    column: int
    low: float = 0.0
    high: float = 0.0


def zipf_weights(count: int, s: float) -> tuple[float, ...]:
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** s
    return tuple(float(w) for w in weights / weights.sum())


def stratified_counts(total: int, weights: tuple[float, ...]) -> list[int]:
    """Exact per-column request counts (largest remainder).

    Drawing columns independently would let the share of the slow
    column wander from seed to seed and move the percentiles with it;
    fixed counts leave only the order to the seed.
    """
    raw = np.asarray(weights) * total
    counts = np.floor(raw).astype(int)
    for index in np.argsort(-(raw - counts), kind="stable")[: total - counts.sum()]:
        counts[index] += 1
    return [int(c) for c in counts]


class RangeWindows:
    """Draws ~1%-selectivity ``[low, high]`` windows for one column.

    Values that alone exceed half the selectivity (Gov/26's zero runs)
    are left out of the window endpoints, so every window selects about
    1% of the column whichever seed drew it.
    """

    def __init__(self, values: np.ndarray) -> None:
        unique, counts = np.unique(values, return_counts=True)
        heavy = unique[counts > RANGE_SELECTIVITY * values.size / 2]
        light = values[~np.isin(values, heavy)]
        self._sorted = np.sort(light)
        self._width = max(1, int(RANGE_SELECTIVITY * values.size))

    def draw(self, count: int, rng: np.random.Generator) -> list[tuple[float, float]]:
        """``count`` windows whose starts are spread evenly over the
        column's value order (one seeded offset), so the share of
        row-groups their zone maps prune is about the same every run."""
        last = self._sorted.size - 1
        span = max(1, last - self._width)
        offset = rng.random()
        windows = []
        for k in range(count):
            start = int((k + offset) / count * span)
            stop = min(start + self._width, last)
            windows.append((float(self._sorted[start]), float(self._sorted[stop])))
        return windows


def make_trace(
    seed: int,
    per_op: int,
    columns: list[np.ndarray],
    weights: tuple[float, ...],
) -> list[Request]:
    """``per_op`` requests of each op kind, columns in fixed proportions."""
    rng = np.random.default_rng([seed, 1])
    windows = [RangeWindows(values) if w else None for values, w in zip(columns, weights)]
    requests: list[Request] = []
    for op in OPS:
        for column, count in enumerate(stratified_counts(per_op, weights)):
            if op == "range" and count:
                for low, high in windows[column].draw(count, rng):
                    requests.append(Request(op, column, low, high))
            else:
                requests.extend(Request(op, column) for _ in range(count))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def in_range(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """The values a range request must return, in column order."""
    return values[(values >= low) & (values <= high)]
