"""File I/O: Hamiltonian text format and its parse cache, CSV round trips,
JSON summaries."""
import csv
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dapt import (ConfigError, Grid, NonHermitianInput, hamiltonian_samples,
                  read_csv, read_hamiltonian, write_csv, write_hamiltonian,
                  write_summary)
from dapt.linalg import hermitian_part


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
    assert np.array_equal(samples2.values, samples)


def test_random_hermitian_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    g = Grid.uniform(7)
    x = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    samples = x + np.swapaxes(x, 1, 2).conj()
    path = tmp_path / "r.txt"
    write_hamiltonian(path, samples, g)
    _, back = read_hamiltonian(path)
    assert np.array_equal(back.values, samples)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# leading comment\n\n1 3\n0 1,0\n\n0.5 1,0\n# mid\n1 1,0\n")
    grid, samples = read_hamiltonian(path)
    assert grid.n == 3
    assert np.array_equal(samples.values, np.ones((3, 1, 1)))


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
    # a header dimension far beyond the lines is reported, not allocated
    "100000 3\n0 1,0\n0.5 1,0\n1 1,0\n",
    b"\xff\xfe\x00bad",
])
def test_malformed_files_raise_config_error(tmp_path, text):
    path = tmp_path / "bad.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ConfigError, match="bad.txt"):
        read_hamiltonian(path)


def test_non_hermitian_file_rejected(tmp_path):
    path = tmp_path / "nh.txt"
    path.write_text("2 3\n0 0,0 1,0 0,0 0,0\n0.5 0,0 1,0 0,0 0,0\n"
                    "1 0,0 1,0 0,0 0,0\n")
    with pytest.raises(NonHermitianInput):
        read_hamiltonian(path)


@pytest.mark.parametrize("node,error,message", [
    ("0.5 nan,0 1,0 1,0 0,0", NonHermitianInput, "non-finite"),
    ("0.5 inf,0 1,0 1,0 0,0", NonHermitianInput, "non-finite"),
    ("0.5 nan 1,0 1,0 0,0", NonHermitianInput, "non-finite"),
    ("nan 0,0 1,0 1,0 0,0", ConfigError, "bad grid"),
])
def test_non_finite_file_rejected(tmp_path, node, error, message):
    # the bare "nan" entry takes the token-by-token scan, the pairs the
    # one-pass conversion
    path = tmp_path / "nf.txt"
    path.write_text(f"2 3\n0 0,0 1,0 1,0 0,0\n{node}\n1 0,0 1,0 1,0 0,0\n")
    with pytest.raises(error, match=message):
        read_hamiltonian(path)


def _read_hamiltonian_reference(path):
    """Token-by-token parser, kept as the reference for the one-pass
    conversion of read_hamiltonian."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    dim, n = (int(t) for t in lines[0].split())
    s = np.empty(n)
    samples = np.empty((n, dim, dim), dtype=complex)
    for k, line in enumerate(lines[1:]):
        toks = line.split()
        s[k] = float(toks[0])
        flat = [complex(*map(float, t.split(","))) for t in toks[1:]]
        samples[k] = np.array(flat).reshape(dim, dim)
    return Grid(s=s), hermitian_part(samples)


# Hermitian 2x2 nodes: exponent forms, -0.0, 1e-300 and 1e300; node lines
# separated by tabs and runs of spaces, with comments and blank lines
ODD_NODES = [
    "0 1e300,0 -2.5E-3,1e-300 -2.5e-3,-1E-300 -0.0,-0.0",
    "0.25\t+1.25e+2,0.0  3,-4 3,4\t-1e300,0",
    "0.5 -0.0,0 1e-300,-1e-300 1E-300,1E-300 7.0e0,0",
    "0.75 .5,0 5.,-.25 5.,.25 -1,-0",
    "1 2,0 0,1 0,-1 -2,0",
]


def _write_nodes(path, nodes):
    path.write_text("# odd but valid\n\n2 5\n" + "\n# mid\n\n".join(nodes)
                    + "\n")


def test_one_pass_parse_matches_token_parser(tmp_path, monkeypatch):
    import dapt.hamio as hamio
    scans = []
    scan = hamio._scan_tokens
    monkeypatch.setattr(hamio, "_scan_tokens",
                        lambda *a: scans.append(1) or scan(*a))
    bare = list(ODD_NODES)
    bare[2] = bare[2].replace("7.0e0,0", "7")     # a bare real token
    for name, nodes, scanned in (("pairs.txt", ODD_NODES, 0),
                                 ("bare.txt", bare, 1)):
        path = tmp_path / name
        _write_nodes(path, nodes)
        grid, samples = read_hamiltonian(path)
        ref_grid, ref_samples = _read_hamiltonian_reference(path)
        assert grid.s.tobytes() == ref_grid.s.tobytes()
        assert samples.values.tobytes() == ref_samples.tobytes()
        # the pair-only file takes the one conversion, the bare token the
        # token-by-token scan
        assert len(scans) == scanned
    assert samples.values[2, 1, 1] == 7.0


@pytest.mark.parametrize("bad", ["1,x", "1,2,3", "1,,2", "1,", ",1", "1, 2"])
def test_bad_token_names_its_node(tmp_path, bad):
    nodes = list(ODD_NODES)
    nodes[3] = nodes[3].replace("5.,-.25", bad)
    # a token with two commas beside a bare one keeps the value count
    # right; it is still an error, not a reinterpretation
    shifted = list(ODD_NODES)
    shifted[3] = "0.75 .5,0,5. -.25 5.,.25 -1,-0"
    for lines in (nodes, shifted):
        path = tmp_path / "bad.txt"
        _write_nodes(path, lines)
        with pytest.raises(ConfigError, match="node 3:"):
            read_hamiltonian(path)


def _pairs_layout_reference(text, n_lines, pairs):
    """The layout rule with one whole-buffer comparison per separator
    byte, kept as the reference for _pairs_layout's byte table."""
    try:
        u = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return False
    comma = u == ord(",")
    sep = comma | (u == 32) | ((u >= 9) & (u <= 13)) | ((u >= 28) & (u <= 31))
    at = np.flatnonzero(comma)
    if at.size != n_lines * pairs or at[0] == 0 or at[-1] == u.size - 1 \
            or sep[at - 1].any() or sep[at + 1].any():
        return False
    kinds = comma[np.flatnonzero(sep[1:] & ~sep[:-1]) + 1]
    line = np.r_[np.tile([False, True], pairs), False]
    return np.array_equal(kinds, np.tile(line, n_lines)[:-1])


LAYOUT_TEXT = "\n".join(ODD_NODES)
# separators of every class, bytes beside them, and one non-ASCII letter
MUTANTS = " \t\n\x0b\x0c\r\x1c\x1f\x1b\x7f\x00,.-+e0x\xe9"


@given(edits=st.lists(st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(min_value=0, max_value=len(LAYOUT_TEXT) - 1),
    st.sampled_from(MUTANTS)), min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
def test_pairs_layout_matches_comparison_rule(edits):
    import dapt.hamio as hamio
    text = LAYOUT_TEXT
    for op, at, ch in edits:
        at = min(at, len(text) - 1)
        text = {"replace": text[:at] + ch + text[at + 1:],
                "insert": text[:at] + ch + text[at:],
                "delete": text[:at] + text[at + 1:]}[op]
    for pairs in (3, 4):
        assert hamio._pairs_layout(text, len(ODD_NODES), pairs) \
            == _pairs_layout_reference(text, len(ODD_NODES), pairs)
    assert _pairs_layout_reference(LAYOUT_TEXT, len(ODD_NODES), 4)


def _entries(cache):
    return sorted(cache.glob("*.npy")) if cache.exists() else []


def _count_parses(monkeypatch):
    import dapt.hamio as hamio
    parses = []
    parse = hamio._parse
    monkeypatch.setattr(hamio, "_parse",
                        lambda path: parses.append(path) or parse(path))
    return parses


@pytest.mark.parametrize("bare", [False, True])
def test_cache_hit_returns_the_parsed_bytes(tmp_path, private_cache,
                                            monkeypatch, bare):
    nodes = list(ODD_NODES)
    if bare:                                      # the token-by-token scan
        nodes[2] = nodes[2].replace("7.0e0,0", "7")
    path = tmp_path / "odd.txt"
    _write_nodes(path, nodes)
    parses = _count_parses(monkeypatch)
    grid, samples = read_hamiltonian(path)
    assert len(_entries(private_cache)) == 1
    hit_grid, hit_samples = read_hamiltonian(path)
    assert len(parses) == 1
    assert hit_grid.s.tobytes() == grid.s.tobytes()
    assert hit_samples.values.tobytes() == samples.values.tobytes()
    assert not hit_samples.values.flags.writeable


def test_edited_file_misses(tmp_path, private_cache, monkeypatch):
    path = tmp_path / "odd.txt"
    _write_nodes(path, ODD_NODES)
    read_hamiltonian(path)
    before = path.stat()
    # same size, and the old mtime put back
    path.write_text(path.read_text().replace("7.0e0,0", "8.0e0,0"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    parses = _count_parses(monkeypatch)
    _, samples = read_hamiltonian(path)
    assert len(parses) == 1
    assert samples.values[2, 1, 1] == 8.0
    assert len(_entries(private_cache)) == 2


def test_file_rewritten_during_the_read_is_not_stored(tmp_path, private_cache,
                                                      monkeypatch):
    import dapt.hamio as hamio
    path = tmp_path / "odd.txt"
    _write_nodes(path, ODD_NODES)
    parse = hamio._parse

    def parse_then_rewrite(p):
        out = parse(p)
        p.write_text(p.read_text().replace("7.0e0,0", "8.0e0,0"))
        return out
    monkeypatch.setattr(hamio, "_parse", parse_then_rewrite)
    _, samples = read_hamiltonian(path)
    assert samples.values[2, 1, 1] == 7.0
    assert _entries(private_cache) == []


def _save(s, samples):
    """Damage that writes a whole entry: the arrays and their checksum."""
    def write(entry):
        with open(entry, "wb") as fh:
            np.save(fh, s)
            np.save(fh, samples)
            np.save(fh, np.frombuffer(hashlib.sha256(s.tobytes() +
                                      samples.tobytes()).digest(), np.uint8))
    return write


def _edit_samples(entry):
    """Damage that changes one stored sample and keeps the checksum."""
    with open(entry, "rb") as fh:
        s, samples, digest = (np.load(fh) for _ in range(3))
    samples[3, 0, 0] += 1e-9
    with open(entry, "wb") as fh:
        for a in (s, samples, digest):
            np.save(fh, a)


DAMAGE = {
    "truncated": lambda e: e.write_bytes(e.read_bytes()[:-40]),
    "one-record": lambda e: e.write_bytes(e.read_bytes()[:100]),
    "empty": lambda e: e.write_bytes(b""),
    "bad-header": lambda e: e.write_bytes(b"\x93NUMPY\x01\x00garbage" * 20),
    "garbage": lambda e: e.write_bytes(b"not an entry at all"),
    "node-count": _save(np.zeros(31), np.zeros((30, 4, 4), dtype=complex)),
    "s-dtype": _save(np.zeros(31, dtype=complex),
                     np.zeros((31, 4, 4), dtype=complex)),
    "samples-dtype": _save(np.zeros(31), np.zeros((31, 4, 4))),
    "not-square": _save(np.zeros(31), np.zeros((31, 4, 3), dtype=complex)),
    "s-2d": _save(np.zeros((31, 1)), np.zeros((31, 4, 4), dtype=complex)),
    "pickled": _save(np.array([1.0, None, 0.5], dtype=object),
                     np.zeros((3, 4, 4), dtype=complex)),
    "no-checksum": lambda e: e.write_bytes(e.read_bytes()[:-160]),
    # the shapes and checksum of a good entry, values the checks reject
    "bad-grid": _save(np.zeros(31), np.zeros((31, 4, 4), dtype=complex)),
    "non-hermitian": _save(np.linspace(0.0, 1.0, 31),
                           np.ones((31, 4, 4)) * (1 + 1j)),
    # a valid grid and Hermitian samples, but not the bytes stored
    "edited-samples": _edit_samples,
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_damaged_entry_is_parsed_and_replaced(sample_file, private_cache,
                                              monkeypatch, damage):
    path, g, samples = sample_file
    read_hamiltonian(path)
    (entry,) = _entries(private_cache)
    good = entry.read_bytes()
    damage(entry)
    parses = _count_parses(monkeypatch)
    grid, back = read_hamiltonian(path)
    assert len(parses) == 1
    assert np.array_equal(grid.s, g.s)
    assert np.array_equal(back.values, samples)
    assert entry.read_bytes() == good


NON_HERMITIAN = ("2 3\n0 0,0 1,0 0,0 0,0\n0.5 0,0 1,0 0,0 0,0\n"
                 "1 0,0 1,0 0,0 0,0\n")
REJECTED = [
    ("1 3\n0 1,x\n0.5 1,0\n1 1,0\n", ConfigError, "node 0:"),
    ("1 3\n0.2 1,0\n0.5 1,0\n1 1,0\n", ConfigError, "bad grid"),
    (NON_HERMITIAN, NonHermitianInput, "exceeds"),
]


@pytest.mark.parametrize("text,error,message", REJECTED)
def test_rejected_file_is_never_stored(tmp_path, private_cache, text, error,
                                       message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    for _ in range(2):
        with pytest.raises(error, match=message):
            read_hamiltonian(path)
    assert _entries(private_cache) == []


def test_unwritable_cache_still_parses(sample_file, tmp_path, monkeypatch):
    # the cache directory would sit under a regular file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    path, g, samples = sample_file
    for _ in range(2):
        grid, back = read_hamiltonian(path)
        assert np.array_equal(grid.s, g.s)
        assert np.array_equal(back.values, samples)
    for text, error, message in REJECTED:
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(error, match=message):
            read_hamiltonian(bad)
    with pytest.raises(OSError):
        read_hamiltonian(tmp_path / "nope.txt")
    assert blocker.read_text() == ""


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_parsed_and_not_stored(tmp_path, private_cache):
    path = tmp_path / "odd.txt"
    _write_nodes(path, ODD_NODES)
    want = read_hamiltonian(path)[1].values
    for entry in _entries(private_cache):
        entry.unlink()
    read_end, write_end = os.pipe()
    try:
        # the file fits the pipe's buffer, so the write does not block;
        # a pipe read twice would read empty the second time
        os.write(write_end, path.read_bytes())
        os.close(write_end)
        write_end = None
        _, samples = read_hamiltonian(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)
    assert samples.values.tobytes() == want.tobytes()
    assert _entries(private_cache) == []


def test_budget_keeps_the_most_recently_used(tmp_path, private_cache,
                                            monkeypatch):
    import dapt.hamio as hamio
    paths = []
    for k in range(3):                   # three contents of one size
        nodes = list(ODD_NODES)
        nodes[4] = nodes[4].replace("2,0 0,1", f"{k + 2},0 0,1")
        paths.append(tmp_path / f"{k}.txt")
        _write_nodes(paths[-1], nodes)
    a, b, c = paths
    read_hamiltonian(a)
    read_hamiltonian(b)
    entry_a, entry_b, entry_c = (hamio._cache_entry(p) for p in paths)
    size = entry_a.stat().st_size
    assert entry_b.stat().st_size == size
    monkeypatch.setattr(hamio, "CACHE_BUDGET", 2 * size)
    os.utime(entry_a, ns=(10**9, 10**9))       # a is the older entry
    os.utime(entry_b, ns=(2 * 10**9, 2 * 10**9))
    parses = _count_parses(monkeypatch)
    read_hamiltonian(a)                  # a hit makes a the newer one
    read_hamiltonian(c)
    assert parses == [c]
    assert _entries(private_cache) == sorted([entry_a, entry_c])
    # an entry larger than the whole budget is not stored
    monkeypatch.setattr(hamio, "CACHE_BUDGET", size // 2)
    for entry in _entries(private_cache):
        entry.unlink()
    read_hamiltonian(a)
    assert _entries(private_cache) == []


@pytest.mark.parametrize("content", [
    b"",
    b"velocity,residual_order0\r\n0.01,x\r\n",
    b"velocity,residual_order0\r\n0.01\r\n",
    b"\xff\xfe\x00bad",
])
def test_malformed_csv_raises_config_error(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="bad.csv"):
        read_csv(path)


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
