"""Genotype and phenotype datasets: parsing, encoding, splits, synthesis.

Genotype calls are encoded 0 (AA), 1 (AB), 2 (BB), and a missing call
is the sentinel 5, on disk and in ``GenotypeMatrix.codes`` (int8). A missing
trait value is NaN in ``PhenotypeTable.values`` and "NA" on disk. The
value is the only record of a missing entry: each table's ``observed``
mask is derived from it and read-only.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .linalg import Rng, check_alloc

MISSING_SENTINEL = 5

_CALL_CODES = {"AA": 0, "AB": 1, "BB": 2, "NULL": MISSING_SENTINEL,
               "0": 0, "1": 1, "2": 2, str(MISSING_SENTINEL): MISSING_SENTINEL}


def _read_only(mask: np.ndarray) -> np.ndarray:
    mask.flags.writeable = False  # a write into a derived mask would change nothing
    return mask


@dataclass
class GenotypeMatrix:
    """Genotype codes 0, 1, 2 as int8, samples x snps, with the missing sentinel at each hole."""

    codes: np.ndarray
    snp_ids: list[str] | None = None

    def __post_init__(self):
        codes = np.asarray(self.codes)  # one byte per call; int8 codes are kept as they are
        with np.errstate(invalid="ignore"):  # NaN and inf have no int8; the check refuses them
            self.codes = codes.astype(np.int8, copy=False)
        valid = (self.codes.view(np.uint8) <= 2) | (self.codes == MISSING_SENTINEL)
        if self.codes is not codes:  # a cast must keep every value
            valid &= self.codes == codes
        if not valid.all():
            raise DataError(f"genotype code {codes[~valid][0]} is not 0, 1, 2 or {MISSING_SENTINEL}")
        if self.codes.ndim != 2:
            raise DataError(f"codes must be 2-D, got shape {self.codes.shape}")
        if self.snp_ids is not None and len(self.snp_ids) != self.snps:
            raise DataError(f"{len(self.snp_ids)} snp ids for {self.snps} columns of codes")

    @property
    def observed(self) -> np.ndarray:
        """True where the call is data: every code but the sentinel (read-only)."""
        return _read_only(self.codes != MISSING_SENTINEL)

    @property
    def samples(self) -> int:
        return self.codes.shape[0]

    @property
    def snps(self) -> int:
        return self.codes.shape[1]

    def fully_observed(self) -> bool:
        return bool(self.observed.all())


@dataclass
class PhenotypeTable:
    """Finite trait measurements, samples x traits, with NaN at each missing measurement."""

    values: np.ndarray
    trait_names: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.isinf(self.values).any():  # a missing value is NaN; no file holds an infinite one
            raise DataError(f"trait value {self.values[np.isinf(self.values)][0]} is not finite")
        if self.values.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {self.values.shape}")
        if self.trait_names is not None and len(self.trait_names) != self.traits:
            raise DataError(f"{len(self.trait_names)} trait names for {self.traits} columns of values")

    @property
    def observed(self) -> np.ndarray:
        """True where the trait was measured: every value but NaN (read-only)."""
        return _read_only(~np.isnan(self.values))

    @property
    def samples(self) -> int:
        return self.values.shape[0]

    @property
    def traits(self) -> int:
        return self.values.shape[1]


@dataclass
class SequenceBatch:
    """Fixed-width chunked input sequences plus per-sample targets.

    ``inputs`` is (n_samples, timesteps, chunk_width); ``targets`` is
    (n_samples, n_out). ``sample_indices`` maps each row back to its
    original sample.
    """

    inputs: np.ndarray
    targets: np.ndarray
    sample_indices: np.ndarray = field(default=None)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.sample_indices is None:
            self.sample_indices = np.arange(self.inputs.shape[0])
        self.sample_indices = np.asarray(self.sample_indices, dtype=np.int64)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset_by_samples(self, sample_ids) -> "SequenceBatch":
        """Rows whose original sample index is in ``sample_ids`` (batch order kept)."""
        wanted = np.isin(self.sample_indices, np.asarray(sample_ids))
        return SequenceBatch(self.inputs[wanted], self.targets[wanted], self.sample_indices[wanted])


def _csv_rows(raw: bytes, where: str, what: str):
    """Yield (0, header), then (row number from 1, cells) for each non-blank body row.

    Decodes ``raw`` once, with universal line ends. Bytes that are not UTF-8, a csv error (such
    as a cell past ``csv.field_size_limit()``), an empty file and a ragged row raise ParseError.
    """
    try:
        reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
        header = next(reader, None)
        if header is None:
            raise ParseError(f"empty {what} file")
        yield 0, header
        for r, cells in enumerate(reader, 1):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ParseError(f"ragged row: expected {len(header)} cells, got {len(cells)}", row=r)
            yield r, cells
    except UnicodeDecodeError as e:
        raise ParseError(f"{where} is not UTF-8 text: {e.reason}") from None
    except csv.Error as e:
        raise ParseError(f"{where} is not readable CSV: {e}") from None


def read_json(path, what: str):
    """The JSON document in the file at ``path``; a file not holding UTF-8 JSON is a ParseError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise ParseError(f"{what} is not valid JSON: {e}") from None


def write_json(doc, path) -> None:
    """Write ``doc`` as indented JSON with sorted keys, the form of every JSON export."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """Write a CSV export: the header, quoted as csv quotes it, then one line per row of cells."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow(header)  # "\r\n": csv then quotes a bare CR
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line.getvalue()[:-2] + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


@dataclass
class Curve:
    """Per-epoch records of one fit or training run; JSON reports export each one's fields."""

    records: list = field(default_factory=list)
    csv_columns = ()  # the record fields a subclass's CSV export writes, in order

    def __len__(self) -> int:
        return len(self.records)

    def to_rows(self) -> list[dict]:
        return [asdict(r) for r in self.records]

    def to_csv(self, path) -> None:
        """Write each record's ``csv_columns``: an int in decimal, a float by repr, None empty."""
        write_csv(path, self.csv_columns, (
            ["" if v is None else str(v) if isinstance(v, int) else repr(float(v))
             for v in (getattr(r, c) for c in self.csv_columns)] for r in self.records))


def parse_genotype_csv(path) -> GenotypeMatrix:
    """Parse a genotype CSV: header of SNP ids, one row of calls per sample.

    Cells may be numeric codes {0,1,2,5} or tokens {AA,AB,BB,Null}, in any
    case and padding; Null becomes the sentinel. Ragged rows and empty files
    are rejected.
    """
    raw = Path(path).read_bytes()
    canonical = _parse_canonical(raw)
    if canonical is not None:
        return canonical
    rows = _csv_rows(raw, str(path), "genotype")
    snp_ids = [h.strip() for h in next(rows)[1]]
    calls, n_rows = bytearray(), 0
    for r, cells in rows:
        row = list(map(_CALL_CODES.get, map(str.upper, map(str.strip, cells))))
        if None in row:
            c = row.index(None)
            raise ParseError(f"unrecognized genotype call {cells[c]!r}", row=r, col=c)
        calls.extend(row)
        n_rows += 1
    codes = np.frombuffer(calls, dtype=np.int8).reshape(n_rows, len(snp_ids))
    return GenotypeMatrix(codes, snp_ids)


def _parse_canonical(raw: bytes) -> GenotypeMatrix | None:
    """``raw`` parsed in one vectorized pass if it is in the layout genotype_to_csv writes, else None.

    That is an ASCII header line without quotes or CR, then rows of one-byte
    codes 0/1/2/5 joined by "," and each ended by "\\n".
    """
    end = raw.find(b"\n")
    header = raw[:end]
    ids = header.split(b",")
    if (end < 1 or not header.isascii() or b'"' in header or b"\r" in header
            or max(map(len, ids)) > csv.field_size_limit()):  # a longer id is a csv reader error
        return None
    width = 2 * len(ids)  # one code and one separator per cell
    if (len(raw) - end - 1) % width:
        return None
    cells = np.frombuffer(raw, np.uint8, offset=end + 1).reshape(-1, width)
    codes = cells[:, ::2] - np.uint8(ord("0"))  # bytes below "0" wrap past 5
    if not (((codes <= 2) | (codes == MISSING_SENTINEL)).all()
            and (cells[:, 1:-1:2] == ord(",")).all() and (cells[:, -1] == ord("\n")).all()):
        return None
    return GenotypeMatrix(codes.view(np.int8), [h.decode().strip() for h in ids])


def genotype_to_csv(g: GenotypeMatrix, path) -> None:
    """Write a GenotypeMatrix back to CSV, one code per cell (holes keep the sentinel)."""
    ids = g.snp_ids if g.snp_ids is not None else [f"snp{j}" for j in range(g.snps)]
    # the body's bytes: each code's digit, then "," or the row's "\n" (a lone "\n" without SNPs)
    body = np.full((g.samples, max(2 * g.snps, 1)), ord(","), np.uint8)
    body[:, -1] = ord("\n")
    body[:, :2 * g.snps:2] = g.codes + ord("0")
    write_csv(path, ids, ())
    with open(path, "ab") as fh:
        fh.write(body)


def parse_phenotype_csv(path) -> PhenotypeTable:
    """Parse a phenotype CSV: header of trait names, real-valued body.

    An empty cell or "NA" (any case) marks a missing measurement; a
    measurement must be a finite number.
    """
    rows = _csv_rows(Path(path).read_bytes(), str(path), "phenotype")
    names = [h.strip() for h in next(rows)[1]]
    values = [[_phenotype_value(cell, r, c) for c, cell in enumerate(cells)] for r, cells in rows]
    return PhenotypeTable(np.array(values, dtype=np.float64).reshape(len(values), len(names)), names)


def _phenotype_value(cell: str, r: int, c: int) -> float:
    """The measurement in a phenotype cell, NaN where it is missing."""
    cell = cell.strip()
    if cell == "" or cell.upper() == "NA":
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric phenotype cell {cell!r}", row=r, col=c) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite phenotype cell {cell!r}", row=r, col=c)
    return value


def phenotype_to_csv(p: PhenotypeTable, path) -> None:
    """Write a PhenotypeTable to CSV, missing cells as NA."""
    names = p.trait_names if p.trait_names is not None else [f"trait{j}" for j in range(p.traits)]
    write_csv(path, names, (["NA" if math.isnan(v) else repr(v) for v in values]
                            for values in p.values.tolist()))


@dataclass(frozen=True)
class DataSettings:
    """How imputed genotypes become model inputs: SNPs per timestep and the split ratios."""

    chunk_width: int = 20
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.chunk_width < 1:
            raise ConfigError(f"chunk_width must be >= 1, got {self.chunk_width}")
        ratios = tuple(float(r) for r in self.ratios)
        if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"ratios must be three positive numbers summing to 1, got {ratios}")

    def split(self, n_samples: int, seed: int) -> dict[str, np.ndarray]:
        """Shuffle 0..n-1 deterministically by seed and slice it into three splits.

        Returns {"train": …, "validation": …, "test": …}, in that order:
        disjoint sample indices covering 0..n-1. Validation and test each get
        floor(ratio * n) samples; every leftover sample goes to train.
        """
        perm = Rng(seed).permutation(n_samples)
        n_val = math.floor(self.ratios[1] * n_samples)
        n_test = math.floor(self.ratios[2] * n_samples)
        n_train = n_samples - n_val - n_test
        return {"train": perm[:n_train], "validation": perm[n_train:n_train + n_val],
                "test": perm[n_train + n_val:]}


def synth_lowrank_genotypes(samples: int, snps: int, rank: int, missing_frac: float,
                            seed: int, missing_mode: str = "entry"):
    """Generate a (holed, truth) pair of synthetic genotype matrices.

    The truth starts from A @ B.T with A, B entrywise uniform on [-1, 1),
    affinely rescaled so its minimum lands at 0 and its maximum at 2, then
    rounded to codes {0,1,2}. The affine offset is itself a rank-one term,
    so it is charged against the rank budget: the factors carry rank - 1
    columns and the pre-rounding matrix has numeric rank <= rank. (For
    rank 1 both factors are uniform on [0, 1) and the matrix is a pure
    scaling of their one-column product.) The holed copy masks
    ceil(missing_frac * cells) entries chosen uniformly ("entry" mode) or
    concentrates missingness in a fraction of SNP columns ("snp_block"
    mode, 1-25% of samples hit per affected SNP).
    """
    _check_synth_shape(samples, snps, rank, "rank")
    rng = Rng(seed)
    lo, cols = (0.0, 1) if rank == 1 else (-1.0, rank - 1)
    a, b = (rng.uniform((n, cols), lo, 1.0) for n in (samples, snps))  # a first, then b
    raw = a @ b.T
    if rank > 1:  # a rounded subtraction is monotone: the new maximum is exactly hi - lo
        raw -= raw.min()
    raw *= 2.0 / raw.max()  # [0, 2(1 + eps)] rounds into {0, 1, 2}
    codes = np.rint(raw, out=raw).astype(np.int8)
    return _mask_holes(codes, missing_frac, missing_mode, rng), GenotypeMatrix(codes)


def _check_synth_shape(samples: int, snps: int, rank: int, rank_name: str) -> None:
    if samples < 1 or snps < 1:
        raise ConfigError(f"samples and snps must be >= 1, got {samples}x{snps}")
    if not 1 <= rank <= min(samples, snps):
        raise ConfigError(f"{rank_name} must be in [1, {min(samples, snps)}], got {rank}")


def _mask_holes(truth: np.ndarray, missing_frac: float, missing_mode: str,
                rng: Rng) -> GenotypeMatrix:
    """A copy of the ``truth`` codes with the sentinel at holes drawn from ``rng``."""
    if not 0.0 <= missing_frac < 1.0:
        raise ConfigError(f"missing_frac must be in [0, 1), got {missing_frac}")
    if missing_mode not in ("entry", "snp_block"):
        raise ConfigError(f"unknown missing_mode {missing_mode!r}")
    samples, snps = truth.shape
    holed = truth.copy()
    if missing_mode == "entry":
        k = math.ceil(missing_frac * samples * snps)
        holes = rng.permutation(samples * snps)[:k]
        holed.reshape(-1)[holes] = MISSING_SENTINEL
    else:
        n_affected = math.ceil(missing_frac * snps)
        affected = rng.permutation(snps)[:n_affected]
        rates = rng.uniform(n_affected, 0.01, 0.25)
        for j, rate in zip(affected, rates):
            n_hit = math.ceil(rate * samples)
            hit = rng.permutation(samples)[:n_hit]
            holed[hit, j] = MISSING_SENTINEL
    return GenotypeMatrix(holed)


def synth_population_genotypes(samples: int, snps: int, groups: int, missing_frac: float,
                               seed: int, missing_mode: str = "entry"):
    """Generate genotypes with population structure: clustered prototype rows.

    Each sample is assigned uniformly to one of ``groups`` subpopulations;
    each subpopulation has a prototype SNP row drawn entrywise uniform on
    [0, 2], rounded to codes. The code matrix then has numeric rank <=
    groups, its codes spread well over {0,1,2}, and a factorization needs
    about ``groups`` features to predict held-out cells, which makes this
    the right instance for capacity-trend comparisons.
    """
    _check_synth_shape(samples, snps, groups, "groups")
    rng = Rng(seed)
    assign = np.floor(rng.uniform(samples, 0, groups)).astype(np.int64)
    protos = rng.uniform((groups, snps), 0.0, 2.0)
    codes = np.rint(protos).astype(np.int8)[assign]  # [0, 2) rounds into {0, 1, 2}
    return _mask_holes(codes, missing_frac, missing_mode, rng), GenotypeMatrix(codes)


def synth_phenotypes(truth: GenotypeMatrix, traits: int = 2, seed: int = 0,
                     noise: float = 0.25, missing_per_trait: int = 0) -> PhenotypeTable:
    """Synthesize traits as noisy linear signals over a few SNP columns.

    Each trait draws its own subset of 8 SNPs and weights, so the resulting
    phenotypes are learnable from the genotypes. ``missing_per_trait``
    samples per trait are NaN, mimicking partially measured traits.
    """
    if traits < 1:
        raise ConfigError(f"traits must be >= 1, got {traits}")
    if not 0 <= missing_per_trait <= truth.samples:
        raise ConfigError(f"missing_per_trait must be in [0, {truth.samples}], "
                          f"got {missing_per_trait}")
    rng = Rng(seed)
    u = truth.samples
    k = min(8, truth.snps)
    check_alloc(u * traits)
    values = np.zeros((u, traits))
    for t in range(traits):
        cols = rng.permutation(truth.snps)[:k]
        x = truth.codes[:, cols].astype(np.float64)  # a mixed-dtype matmul rounds otherwise
        values[:, t] = x @ rng.gaussian(k) / math.sqrt(k) + noise * rng.gaussian(u)
        if missing_per_trait:
            miss = rng.permutation(u)[:missing_per_trait]
            values[miss, t] = np.nan
    return PhenotypeTable(values, [f"trait{t + 1}" for t in range(traits)])


def check_traits(traits, phenos: PhenotypeTable) -> None:
    """Reject a trait index the phenotype table does not have."""
    for t in traits:
        if not 0 <= t < phenos.traits:
            raise ConfigError(f"trait index {t} out of range for {phenos.traits} traits")


def build_sequences(g: GenotypeMatrix, phenos: PhenotypeTable, trait: int,
                    chunk_width: int) -> SequenceBatch:
    """Cut each sample's SNP row into fixed-width timestep chunks.

    The genotype matrix must be fully observed (impute first). Rows are
    split into ceil(snps / chunk_width) consecutive chunks, the last one
    zero-padded, and codes {0,1,2} become {0, 0.5, 1}. Samples whose trait
    value is missing are left out.
    """
    x = genotype_sequences(g, chunk_width)
    if g.samples != phenos.samples:
        raise DataError(f"genotype has {g.samples} samples but phenotypes have {phenos.samples}")
    check_traits([trait], phenos)
    keep = phenos.observed[:, trait]
    targets = phenos.values[keep, trait][:, None]
    return SequenceBatch(x[keep], targets, np.nonzero(keep)[0])


def genotype_sequences(g: GenotypeMatrix, chunk_width: int) -> np.ndarray:
    """Chunk a fully observed genotype matrix into (samples, timesteps, width), codes halved."""
    if not g.fully_observed():
        raise DataError("genotype matrix has unobserved cells; impute before building sequences")
    if chunk_width < 1:
        raise ConfigError(f"chunk_width must be >= 1, got {chunk_width}")
    u, v = g.samples, g.snps
    t_seq = math.ceil(v / chunk_width)
    check_alloc(u * t_seq * chunk_width)
    x = np.zeros((u, t_seq * chunk_width))
    x[:, :v] = g.codes
    x *= 0.5
    return x.reshape(u, t_seq, chunk_width)

