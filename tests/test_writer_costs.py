"""What the CSV writer costs besides its time: the memory one table takes,
and the tables it builds when the command line is imported and when a
command writes its first few rows."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import landau_packets
from landau_packets.trajectory import CSV_HEADER, write_table


def test_one_table_takes_at_most_a_mebibyte(tmp_path):
    # a block's temporaries, not the table, set the writer's memory: 0.77
    # MiB measured for 1024-row blocks of 10 columns, against 2.58 MiB for
    # the earlier writer
    rng = np.random.default_rng(3)
    table = rng.standard_normal((8192, 10)) * 10.0 ** rng.integers(-20, 20, size=(8192, 10))
    write_table(tmp_path / "warm.csv", CSV_HEADER, table[:4])
    tracemalloc.start()
    try:
        write_table(tmp_path / "table.csv", CSV_HEADER, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_import_builds_no_writer_table_and_a_first_write_only_its_decades(tmp_path):
    # the digit tables wait for the first write, and a write of converge.csv's
    # 4 rows builds the powers of ten of the decades its values span only
    src = str(Path(landau_packets.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = f"""
import numpy as np
from landau_packets import cli, trajectory
print(trajectory._tables.cache_info().currsize, trajectory._scale.cache_info().currsize)
cli.main(["converge", "--n", "1000", "--n-list", "3,10,100,1000", "--output-dir", {str(tmp_path)!r}])
values = np.loadtxt({str(tmp_path / "converge.csv")!r}, delimiter=",", skiprows=1)
e = np.floor(np.log10(np.where(values == 0, 1.0, np.abs(values))))
print(trajectory._tables.cache_info().currsize, trajectory._scale.cache_info().currsize, int(e.max() - e.min() + 1))
"""
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "0 0"
    tables, decades, span = map(int, lines[-1].split())
    assert tables == 1 and decades == span < 30
