"""File I/O: Hamiltonian text format, CSV round trips, JSON summaries."""
import csv
import json

import numpy as np
import pytest

from dapt import (ConfigError, Grid, NonHermitianInput, hamiltonian_samples,
                  read_csv, read_hamiltonian, write_csv, write_hamiltonian,
                  write_summary)


@pytest.fixture()
def sample_file(tmp_path, gamma):
    g = Grid.uniform(31)
    samples = hamiltonian_samples(gamma.hamiltonian, g)
    path = tmp_path / "h.txt"
    write_hamiltonian(path, samples, g, comment="round trip\nfixture")
    return path, g, samples


def test_hamiltonian_round_trip_is_bit_exact(sample_file):
    path, g, samples = sample_file
    grid2, samples2 = read_hamiltonian(path)
    assert np.array_equal(grid2.s, g.s)
    assert np.array_equal(samples2, samples)


def test_random_hermitian_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    g = Grid.uniform(7)
    x = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    samples = x + np.swapaxes(x, 1, 2).conj()
    path = tmp_path / "r.txt"
    write_hamiltonian(path, samples, g)
    _, back = read_hamiltonian(path)
    assert np.array_equal(back, samples)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# leading comment\n\n1 3\n0 1,0\n\n0.5 1,0\n# mid\n1 1,0\n")
    grid, samples = read_hamiltonian(path)
    assert grid.n == 3
    assert np.array_equal(samples, np.ones((3, 1, 1)))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_hamiltonian(tmp_path / "nope.txt")


@pytest.mark.parametrize("text", [
    "",
    "2\n",
    "two 3\n0 1,0\n0.5 1,0\n1 1,0\n",
    "1 3\n0 1,0\n1 1,0\n",
    "1 3\n0 1,0 5,0\n0.5 1,0\n1 1,0\n",
    "1 3\n0 1,x\n0.5 1,0\n1 1,0\n",
    "1 3\n0.2 1,0\n0.5 1,0\n1 1,0\n",
    "0 3\n0\n0.5\n1\n",
    "-1 3\n0\n0.5\n1\n",
])
def test_malformed_files_raise_config_error(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConfigError):
        read_hamiltonian(path)


def test_non_hermitian_file_rejected(tmp_path):
    path = tmp_path / "nh.txt"
    path.write_text("2 3\n0 0,0 1,0 0,0 0,0\n0.5 0,0 1,0 0,0 0,0\n"
                    "1 0,0 1,0 0,0 0,0\n")
    with pytest.raises(NonHermitianInput):
        read_hamiltonian(path)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    s = np.linspace(0.0, 1.0, 9)
    z = np.exp(2j * np.pi * s) / 3.0
    write_csv(path, [("s", s), ("amp", z), ("flag", np.arange(9.0))])
    back = read_csv(path)
    assert set(back) == {"s", "amp", "flag"}
    assert np.array_equal(back["s"], s)
    assert np.array_equal(back["amp"], z)
    assert np.array_equal(back["flag"], np.arange(9.0))


def _csv_writer_reference(path, columns):
    """Cell-by-cell csv.writer version of write_csv, kept as the byte
    reference for the row-format writer."""
    names, cols = [], []
    for name, arr in columns:
        arr = np.asarray(arr)
        if np.iscomplexobj(arr):
            names.extend([f"{name}_re", f"{name}_im"])
            cols.extend([arr.real, arr.imag])
        else:
            names.append(name)
            cols.append(arr.astype(float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for k in range(len(cols[0])):
            writer.writerow(["%.17g" % float(c[k]) for c in cols])


def test_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    s = np.linspace(0.0, 1.0, 40)
    z = (rng.normal(size=40) + 1j * rng.normal(size=40)) * 10.0 ** \
        rng.integers(-300, 300, size=40)
    odd = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 1.0,
                    -2.5, 0.1] * 4)
    columns = [("s", s), ("amp", z), ("odd", odd), ("count", np.arange(40)),
               ("single", np.exp(1j * s).astype(np.complex64)),
               ("list", list(s))]
    write_csv(tmp_path / "new.csv", columns)
    _csv_writer_reference(tmp_path / "ref.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", [("a", np.ones(3)), ("b", np.ones(4))])


def test_summary_contents(tmp_path):
    path = tmp_path / "s.json"
    write_summary(path, {"value": np.float64(1.5), "flag": np.bool_(True),
                         "z": 1 + 2j, "arr": np.arange(3)},
                  config={"model": "gamma", "n": 5})
    doc = json.loads(path.read_text())
    assert doc["version"]
    assert doc["config"] == {"model": "gamma", "n": 5}
    assert doc["value"] == 1.5
    assert doc["flag"] is True
    assert doc["z"] == {"re": 1.0, "im": 2.0}
    assert doc["arr"] == [0, 1, 2]
