"""File formats: sampled Hamiltonians, CSV reports, JSON summaries.

The Hamiltonian text format is line-oriented and language-neutral:

    # optional comment lines
    <dim> <n_nodes>
    <s_0> <re,im> <re,im> ... (dim*dim row-major pairs)
    ...
    <s_last> ...

Each file content is parsed once: read_hamiltonian keeps the parsed
samples of a regular file in a cache directory, ``$XDG_CACHE_HOME/dapt``
(``~/.cache/dapt`` when that is unset), under the SHA-256 of the file's
bytes, and reads a file whose content it has parsed before from there.

Complex values in CSV files occupy two adjacent columns named ``<col>_re``
and ``<col>_im``. All floats print with 17 significant digits so re-reading
an emitted file reproduces the in-memory doubles bit-for-bit.
"""
import contextlib
import csv
import hashlib
import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonHermitianInput
from .grid import Grid
from .spectral import HermitianSamples

FLOAT_FMT = "%.17g"
CHUNK_BYTES = 1 << 18
# the parsed-sample cache: the key's prefix names the format of what an
# entry holds, so changing the parser or the entry layout means a new tag
CACHE_TAG = b"dapt-hamiltonian-2\0"
CACHE_BUDGET = 256 << 20       # bytes of entries kept, most recently used
HASH_CHUNK = 1 << 20


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def write_hamiltonian(path, samples: np.ndarray, grid: Grid,
                      comment: str = None) -> None:
    samples = np.asarray(samples, dtype=complex)
    dim = samples.shape[1]
    with open(path, "w") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"{dim} {grid.n}\n")
        for k in range(grid.n):
            row = samples[k].reshape(-1)
            pairs = " ".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in row)
            fh.write(f"{_fmt(grid.s[k])} {pairs}\n")


def read_hamiltonian(path):
    """Parse a sampled-Hamiltonian file into (grid, samples).

    The samples come back checked, as a HermitianSamples (their Hermitian
    part, read-only, in ``.values``), so no later stage checks them again.
    Raises OSError for unreadable paths, ConfigError for malformed content
    (bytes that are not text included), NonHermitianInput when any node
    fails the Hermiticity check of linalg.hermitian_part.

    A regular file whose content was parsed before is read from the cache
    (see the module docstring) and checked again, as a parse is, so a hit
    returns the same values and raises the same errors as a parse. Only a
    file that passes the checks, and whose content did not change while it
    was read, is stored. An entry carries the SHA-256 of its arrays; one
    that fails it, or fails the checks, is dropped and the file parsed.
    The cache keeps the most recently used entries within CACHE_BUDGET
    bytes. A cache that cannot be read or written means a parse, never an
    error; a path that is not a regular file, such as a pipe, is always
    parsed.
    """
    entry = _cache_entry(path)
    cached = _cache_load(entry) if entry is not None else None
    if cached is not None:
        try:
            return _checked(path, *cached)
        except (ConfigError, NonHermitianInput):
            # an entry the checks reject is dropped; the parse decides
            with contextlib.suppress(OSError):
                os.unlink(entry)
    s, samples = _parse(path)
    out = _checked(path, s, samples)
    # a file rewritten while it was read is not stored under the old key
    if entry is not None and _cache_entry(path) == entry:
        _cache_store(entry, s, samples)
    return out


def _parse(path):
    """The node values (s, samples) of a file, unchecked beyond its text."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc}") from None
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ConfigError(f"{path}: empty Hamiltonian file")
    head = lines[0].split()
    if len(head) != 2:
        raise ConfigError(f"{path}: header must be '<dim> <n_nodes>'")
    try:
        dim, n = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad header: {exc}") from None
    if dim < 1:
        raise ConfigError(f"{path}: dimension must be at least 1, got {dim}")
    if len(lines) - 1 != n:
        raise ConfigError(f"{path}: expected {n} node lines, found {len(lines) - 1}")
    # both parsers allocate (n, dim, dim) first, so node 0 has to show
    # that the header's dimension matches the lines
    if n:
        _check_token_count(path, 0, lines[1].split(), dim)
    return _read_pairs(lines[1:], dim) or _scan_tokens(path, lines[1:], dim)


def _checked(path, s, samples):
    """(grid, samples) of parsed node values; the checks of every read."""
    try:
        grid = Grid(s=s)
    except Exception as exc:
        raise ConfigError(f"{path}: bad grid: {exc}") from None
    try:
        return grid, HermitianSamples(samples, grid)
    except NonHermitianInput as exc:
        raise NonHermitianInput(f"{path}: {exc}") from None


def _cache_entry(path):
    """The cache entry named by the content of the regular file ``path``;
    None for any other path or a file that cannot be read. The file is
    hashed in HASH_CHUNK pieces, so it is never held whole."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        digest = hashlib.sha256(CACHE_TAG)
        with open(path, "rb") as fh:
            while chunk := fh.read(HASH_CHUNK):
                digest.update(chunk)
    except OSError:
        return None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):         # unset, empty or relative: ignored
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "dapt" / f"{digest.hexdigest()}.npy"


def _payload_digest(s, samples):
    """SHA-256 of the bytes of an entry's two arrays, as a uint8 record."""
    digest = hashlib.sha256(s)
    digest.update(samples)
    return np.frombuffer(digest.digest(), dtype=np.uint8)


def _cache_load(entry):
    """(s, samples) of a cache entry, or None when there is none or it is
    not the records a store writes: s and samples of the shapes and types
    a parse returns, then the _payload_digest of their bytes."""
    try:
        with open(entry, "rb") as fh:
            s = np.load(fh, allow_pickle=False)
            samples = np.load(fh, allow_pickle=False)
            digest = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if s.dtype != np.float64 or s.ndim != 1 \
            or samples.dtype != np.complex128 or samples.ndim != 3 \
            or samples.shape[0] != s.size \
            or samples.shape[1] != samples.shape[2] \
            or not np.array_equal(digest, _payload_digest(s, samples)):
        return None
    with contextlib.suppress(OSError):      # a read-only cache still hits
        os.utime(entry)
    return s, samples


def _cache_store(entry, s, samples):
    """Write an entry under a temporary name and rename it into place, then
    evict the least recently used entries beyond CACHE_BUDGET bytes."""
    if s.nbytes + samples.nbytes > CACHE_BUDGET:
        return
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, s)
            np.save(fh, samples)
            np.save(fh, _payload_digest(s, samples))
        os.replace(tmp, entry)
        _evict(entry.parent)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _evict(directory):
    """Keep the newest files of ``directory`` (by mtime, which a hit
    touches) that fit in CACHE_BUDGET bytes; delete the rest."""
    files = []
    for e in os.scandir(directory):
        if e.is_file(follow_symlinks=False):
            st = e.stat(follow_symlinks=False)
            files.append((st.st_mtime_ns, st.st_size, e.path))
    total = 0
    for _, size, name in sorted(files, reverse=True):
        total += size
        if total > CACHE_BUDGET:
            os.unlink(name)


def _read_pairs(lines, dim):
    """One conversion per chunk of node lines into (s, samples); None
    unless every line reads exactly '<s> <re>,<im> ...' with dim * dim
    pairs (ASCII) and every value converts, so that anything else takes
    _scan_tokens. Chunks of about CHUNK_BYTES keep the temporaries of the
    conversion small beside the lines themselves."""
    if not lines:
        return None
    pairs = dim * dim
    s = np.empty(len(lines))
    samples = np.empty((len(lines), dim, dim), dtype=complex)
    step = max(1, CHUNK_BYTES // (len(lines[0]) + 1))
    for lo in range(0, len(lines), step):
        chunk = lines[lo:lo + step]
        text = "\n".join(chunk)
        if not _pairs_layout(text, len(chunk), pairs):
            return None
        try:
            values = np.loadtxt(text.replace(",", " ").split("\n"),
                                dtype=float, comments=None, ndmin=2)
        except ValueError:
            return None
        if values.shape != (len(chunk), 1 + 2 * pairs):
            return None
        s[lo:lo + step] = values[:, 0]
        samples.real[lo:lo + step] = values[:, 1::2].reshape(-1, dim, dim)
        samples.imag[lo:lo + step] = values[:, 2::2].reshape(-1, dim, dim)
    return s, samples


# byte classes of _pairs_layout: 1 for the ASCII whitespace of str.split
# (\t-\r, \x1c-\x1f and the space), 2 for the comma, 0 for any other byte
LAYOUT_CLASSES = bytes(1 if 9 <= b <= 13 or 28 <= b <= 32
                       else 2 if b == ord(",") else 0 for b in range(256))


def _pairs_layout(text, n_lines, pairs):
    """True when ``text`` is ``n_lines`` lines of '<s> <re>,<im> ...' with
    ``pairs`` pairs, checked on its ASCII bytes: each comma stands between
    two value characters, and the separators of a line alternate
    whitespace, comma, ..., ending on a comma. A token with two commas,
    none, or an empty part next to one fails; it is not reinterpreted.
    The bytes are classified in one pass, by LAYOUT_CLASSES."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return False
    u = np.frombuffer(raw.translate(LAYOUT_CLASSES), dtype=np.uint8)
    comma = u == 2
    sep = u != 0
    at = np.flatnonzero(comma)
    if at.size != n_lines * pairs or at[0] == 0 or at[-1] == u.size - 1 \
            or sep[at - 1].any() or sep[at + 1].any():
        return False
    kinds = comma[np.flatnonzero(sep[1:] & ~sep[:-1]) + 1]
    line = np.r_[np.tile([False, True], pairs), False]
    return np.array_equal(kinds, np.tile(line, n_lines)[:-1])


def _scan_tokens(path, lines, dim):
    """Token-by-token parse of the node lines. It reads a bare real token
    as a complex value with zero imaginary part, and raises ConfigError
    naming the first bad node."""
    s = np.empty(len(lines))
    samples = np.empty((len(lines), dim, dim), dtype=complex)
    for k, line in enumerate(lines):
        toks = line.split()
        _check_token_count(path, k, toks, dim)
        try:
            s[k] = float(toks[0])
            flat = [complex(*map(float, t.split(","))) for t in toks[1:]]
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: node {k}: {exc}") from None
        samples[k] = np.array(flat).reshape(dim, dim)
    return s, samples


def _check_token_count(path, k, toks, dim):
    if len(toks) != 1 + dim * dim:
        raise ConfigError(f"{path}: node {k}: expected {1 + dim * dim} "
                          f"tokens, found {len(toks)}")


def write_csv(path, columns) -> None:
    """Write named columns; complex ones expand to _re/_im pairs.

    ``columns`` is a sequence of (name, 1-d array) pairs.
    """
    names, cols = [], []
    for name, arr in columns:
        arr = np.asarray(arr)
        if np.iscomplexobj(arr):
            names.extend([f"{name}_re", f"{name}_im"])
            cols.extend([arr.real, arr.imag])
        else:
            names.append(name)
            cols.append(arr.astype(float))
    n = len(cols[0])
    for c in cols:
        if len(c) != n:
            raise ValueError("CSV columns must share a length")
    row = ",".join([FLOAT_FMT] * len(cols)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(row % tuple(r) for r in np.column_stack(cols))


def read_csv(path) -> dict:
    """Read a write_csv file back; _re/_im pairs recombine to complex.

    Raises OSError for unreadable paths and ConfigError for content that
    is not a header over rows of numbers of the same length.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            names = next(reader, None)
            rows = [[float(x) for x in row] for row in reader]
    except ValueError as exc:       # a non-numeric cell, or bytes not text
        raise ConfigError(f"{path}: bad CSV: {exc}") from None
    if not names:
        raise ConfigError(f"{path}: empty CSV file")
    if any(len(row) != len(names) for row in rows):
        raise ConfigError(f"{path}: a row's length differs from the header's")
    data = np.array(rows) if rows else np.zeros((0, len(names)))
    out = {}
    k = 0
    while k < len(names):
        name = names[k]
        if name.endswith("_re") and k + 1 < len(names) \
                and names[k + 1] == name[:-3] + "_im":
            out[name[:-3]] = data[:, k] + 1j * data[:, k + 1]
            k += 2
        else:
            out[name] = data[:, k]
            k += 1
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def write_summary(path, payload: dict, config: dict = None) -> None:
    """JSON report with the run configuration echoed and the version pinned."""
    from . import __version__
    doc = {"version": __version__}
    if config is not None:
        doc["config"] = config
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=_json_default, sort_keys=False)
        fh.write("\n")
