"""Genotype and phenotype datasets: parsing, encoding, splits, synthesis.

Genotype calls are encoded 0 (AA), 1 (AB), 2 (BB). Missing calls are
written as 5 on disk; in memory the boolean ``observed`` mask is
authoritative, so the sentinel never reaches arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError, StateError
from .linalg import Rng

MISSING_SENTINEL = 5

_CALL_CODES = {"AA": 0, "AB": 1, "BB": 2, "NULL": MISSING_SENTINEL,
               "0": 0, "1": 1, "2": 2, str(MISSING_SENTINEL): MISSING_SENTINEL}

NORMALIZATIONS = ("scaled", "raw")


@dataclass
class GenotypeMatrix:
    """Integer genotype codes with an observation mask.

    ``codes`` is samples x snps; wherever ``observed`` is False the stored
    code is the missing sentinel and must not be read as data.
    """

    codes: np.ndarray
    observed: np.ndarray
    snp_ids: list[str] | None = None

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.int16)
        self.observed = np.asarray(self.observed, dtype=bool)
        if self.codes.shape != self.observed.shape or self.codes.ndim != 2:
            raise DataError(f"codes {self.codes.shape} and mask {self.observed.shape} must be equal 2-D shapes")

    @property
    def samples(self) -> int:
        return self.codes.shape[0]

    @property
    def snps(self) -> int:
        return self.codes.shape[1]

    def fully_observed(self) -> bool:
        return bool(self.observed.all())

    def copy(self) -> "GenotypeMatrix":
        ids = list(self.snp_ids) if self.snp_ids is not None else None
        return GenotypeMatrix(self.codes.copy(), self.observed.copy(), ids)


@dataclass
class PhenotypeTable:
    """Continuous trait measurements per sample, with a missing-value mask."""

    values: np.ndarray
    observed: np.ndarray
    trait_names: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.observed = np.asarray(self.observed, dtype=bool)
        if self.values.shape != self.observed.shape or self.values.ndim != 2:
            raise DataError(f"values {self.values.shape} and mask {self.observed.shape} must be equal 2-D shapes")

    @property
    def samples(self) -> int:
        return self.values.shape[0]

    @property
    def traits(self) -> int:
        return self.values.shape[1]


@dataclass
class SplitIndices:
    """Disjoint train/validation/test sample indices covering 0..n-1."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int


@dataclass
class SequenceBatch:
    """Fixed-width chunked input sequences plus per-sample targets.

    ``inputs`` is (n_samples, timesteps, chunk_width); ``targets`` is
    (n_samples, n_out). ``sample_indices`` maps each row back to its
    original sample; ``excluded`` lists samples dropped because the
    requested trait was missing.
    """

    inputs: np.ndarray
    targets: np.ndarray
    timesteps: int
    chunk_width: int
    sample_indices: np.ndarray = field(default=None)
    excluded: list[int] = field(default_factory=list)

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
        return SequenceBatch(self.inputs[wanted], self.targets[wanted],
                             self.timesteps, self.chunk_width,
                             self.sample_indices[wanted], list(self.excluded))


def encode_calls(tokens) -> list[int]:
    """Encode genotype call tokens to integers: AA=0, AB=1, BB=2, Null=5.

    Tokens are matched case-insensitively; already-numeric tokens
    (0/1/2/5) pass through. Anything else is a parse error carrying the
    token's position.
    """
    out = []
    for i, tok in enumerate(tokens):
        key = str(tok).strip().upper()
        code = _CALL_CODES.get(key)
        if code is None:
            raise ParseError(f"unrecognized genotype call {tok!r}", col=i)
        out.append(code)
    return out


@contextmanager
def _text_source(source):
    """A text handle on ``source``: a path is opened here and closed on exit, others read as is."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield fh
    elif isinstance(source, bytes):
        yield io.StringIO(source.decode("utf-8"))
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        yield io.TextIOWrapper(source, encoding="utf-8", newline="")


def write_json(doc, path) -> None:
    """Write ``doc`` as indented JSON with sorted keys, the form of every JSON export."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@contextmanager
def text_sink(dest):
    """A text handle on ``dest``: a path is opened here and closed on exit, a handle is used as is."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield dest


def parse_genotype_csv(source) -> GenotypeMatrix:
    """Parse a genotype CSV: header of SNP ids, one row of calls per sample.

    Cells may be numeric codes {0,1,2,5} or tokens {AA,AB,BB,Null}. The
    observed mask is False exactly where the sentinel or Null occurred.
    Ragged rows and empty files are rejected.
    """
    with _text_source(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty genotype file")
        snp_ids = [h.strip() for h in header]
        n_snps = len(snp_ids)
        rows = []
        for r, cells in enumerate(reader):
            if not cells:
                continue
            if len(cells) != n_snps:
                raise ParseError(f"ragged row: expected {n_snps} cells, got {len(cells)}", row=r + 1)
            try:
                rows.append(encode_calls(cells))
            except ParseError as e:
                raise ParseError(str(e), row=r + 1, col=e.col) from None
    codes = np.array(rows, dtype=np.int16).reshape(len(rows), n_snps)
    observed = codes != MISSING_SENTINEL
    return GenotypeMatrix(codes, observed, snp_ids)


def genotype_to_csv(g: GenotypeMatrix, dest) -> None:
    """Write a GenotypeMatrix back to CSV, unobserved cells as the sentinel."""
    with text_sink(dest) as fh:
        ids = g.snp_ids if g.snp_ids is not None else [f"snp{j}" for j in range(g.snps)]
        fh.write(",".join(ids) + "\n")
        body = np.where(g.observed, g.codes, MISSING_SENTINEL)
        for row in body:
            fh.write(",".join(str(int(c)) for c in row) + "\n")


def parse_phenotype_csv(source) -> PhenotypeTable:
    """Parse a phenotype CSV: header of trait names, real-valued body.

    An empty cell or "NA" (any case) marks a missing measurement; a
    measurement must be a finite number.
    """
    with _text_source(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty phenotype file")
        names = [h.strip() for h in header]
        n_traits = len(names)
        values, observed = [], []
        for r, cells in enumerate(reader):
            if not cells:
                continue
            if len(cells) != n_traits:
                raise ParseError(f"ragged row: expected {n_traits} cells, got {len(cells)}", row=r + 1)
            vrow, orow = [], []
            for c, cell in enumerate(cells):
                cell = cell.strip()
                if cell == "" or cell.upper() == "NA":
                    vrow.append(0.0)
                    orow.append(False)
                else:
                    try:
                        vrow.append(float(cell))
                    except ValueError:
                        raise ParseError(f"non-numeric phenotype cell {cell!r}", row=r + 1, col=c) from None
                    if not math.isfinite(vrow[-1]):
                        raise ParseError(f"non-finite phenotype cell {cell!r}", row=r + 1, col=c)
                    orow.append(True)
            values.append(vrow)
            observed.append(orow)
    vals = np.array(values, dtype=np.float64).reshape(len(values), n_traits)
    mask = np.array(observed, dtype=bool).reshape(len(values), n_traits)
    return PhenotypeTable(vals, mask, names)


def phenotype_to_csv(p: PhenotypeTable, dest) -> None:
    """Write a PhenotypeTable to CSV, missing cells as NA."""
    with text_sink(dest) as fh:
        names = p.trait_names if p.trait_names is not None else [f"trait{j}" for j in range(p.traits)]
        fh.write(",".join(names) + "\n")
        for u in range(p.samples):
            cells = [repr(float(p.values[u, t])) if p.observed[u, t] else "NA" for t in range(p.traits)]
            fh.write(",".join(cells) + "\n")


def split_dataset(n_samples: int, ratios, seed: int) -> SplitIndices:
    """Shuffle 0..n-1 deterministically by seed and slice into three splits.

    Each split gets floor(ratio * n) samples; every leftover sample goes
    to train.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ConfigError(f"need three positive ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {sum(ratios)!r}")
    perm = Rng(seed).permutation(n_samples)
    n_val = math.floor(ratios[1] * n_samples)
    n_test = math.floor(ratios[2] * n_samples)
    n_train = n_samples - n_val - n_test
    return SplitIndices(train=perm[:n_train],
                        validation=perm[n_train:n_train + n_val],
                        test=perm[n_train + n_val:],
                        seed=seed)


def synth_lowrank_genotypes(samples: int, snps: int, rank: int, missing_frac: float,
                            seed: int, missing_mode: str = "entry"):
    """Generate a (holed, truth) pair of synthetic genotype matrices.

    The truth starts from A @ B.T with A, B entrywise uniform on [-1, 1),
    affinely rescaled so its minimum lands at 0 and its maximum at 2, then
    rounded to codes {0,1,2}. The affine offset is itself a rank-one term,
    so it is charged against the rank budget: the factors carry rank - 1
    columns and the pre-rounding matrix has numeric rank <= rank. (For
    rank 1 the matrix is a pure scaling of a one-column product.) The
    holed copy masks ceil(missing_frac * cells) entries chosen uniformly
    ("entry" mode) or concentrates missingness in a fraction of SNP
    columns ("snp_block" mode, 1-25% of samples hit per affected SNP).
    """
    _check_synth_shape(samples, snps, rank, "rank")
    rng = Rng(seed)
    if rank == 1:
        a = rng.uniform((samples, 1))
        b = rng.uniform((snps, 1))
        raw = a @ b.T
        raw *= 2.0 / raw.max()
    else:
        a = rng.uniform((samples, rank - 1), -1.0, 1.0)
        b = rng.uniform((snps, rank - 1), -1.0, 1.0)
        raw = a @ b.T
        lo, hi = raw.min(), raw.max()
        raw = (raw - lo) * (2.0 / (hi - lo))
    codes = np.clip(np.rint(raw), 0, 2).astype(np.int16)
    truth = GenotypeMatrix(codes, np.ones_like(codes, dtype=bool))
    holed = _mask_holes(truth, missing_frac, missing_mode, rng)
    return holed, truth


def _check_synth_shape(samples: int, snps: int, rank: int, rank_name: str) -> None:
    if samples < 1 or snps < 1:
        raise ConfigError(f"samples and snps must be >= 1, got {samples}x{snps}")
    if not 1 <= rank <= min(samples, snps):
        raise ConfigError(f"{rank_name} must be in [1, {min(samples, snps)}], got {rank}")


def _mask_holes(truth: GenotypeMatrix, missing_frac: float, missing_mode: str,
                rng: Rng) -> GenotypeMatrix:
    if not 0.0 <= missing_frac < 1.0:
        raise ConfigError(f"missing_frac must be in [0, 1), got {missing_frac}")
    if missing_mode not in ("entry", "snp_block"):
        raise ConfigError(f"unknown missing_mode {missing_mode!r}")
    samples, snps = truth.samples, truth.snps
    holed = truth.copy()
    if missing_mode == "entry":
        k = math.ceil(missing_frac * samples * snps)
        holes = rng.permutation(samples * snps)[:k]
        holed.codes.reshape(-1)[holes] = MISSING_SENTINEL
        holed.observed.reshape(-1)[holes] = False
    else:
        n_affected = math.ceil(missing_frac * snps)
        affected = rng.permutation(snps)[:n_affected]
        rates = rng.uniform(n_affected, 0.01, 0.25)
        for j, rate in zip(affected, rates):
            n_hit = math.ceil(rate * samples)
            hit = rng.permutation(samples)[:n_hit]
            holed.codes[hit, j] = MISSING_SENTINEL
            holed.observed[hit, j] = False
    return holed


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
    codes = np.clip(np.rint(protos[assign]), 0, 2).astype(np.int16)
    truth = GenotypeMatrix(codes, np.ones_like(codes, dtype=bool))
    holed = _mask_holes(truth, missing_frac, missing_mode, rng)
    return holed, truth


def synth_phenotypes(truth: GenotypeMatrix, traits: int = 2, seed: int = 0,
                     snps_per_trait: int = 8, noise: float = 0.25,
                     missing_per_trait: int = 0) -> PhenotypeTable:
    """Synthesize traits as noisy linear signals over a few SNP columns.

    Each trait draws its own SNP subset and weights, so the resulting
    phenotypes are learnable from the genotypes. ``missing_per_trait``
    samples per trait are masked out, mimicking partially measured traits.
    """
    if traits < 1:
        raise ConfigError(f"traits must be >= 1, got {traits}")
    if not 0 <= missing_per_trait <= truth.samples:
        raise ConfigError(f"missing_per_trait must be in [0, {truth.samples}], "
                          f"got {missing_per_trait}")
    rng = Rng(seed)
    u = truth.samples
    k = min(snps_per_trait, truth.snps)
    values = np.zeros((u, traits))
    observed = np.ones((u, traits), dtype=bool)
    g = truth.codes.astype(np.float64)
    for t in range(traits):
        cols = rng.permutation(truth.snps)[:k]
        w = rng.gaussian(k)
        values[:, t] = g[:, cols] @ w / math.sqrt(k) + noise * rng.gaussian(u)
        if missing_per_trait:
            miss = rng.permutation(u)[:missing_per_trait]
            observed[miss, t] = False
            values[miss, t] = 0.0
    return PhenotypeTable(values, observed, [f"trait{t + 1}" for t in range(traits)])


def check_traits(traits, phenos: PhenotypeTable) -> None:
    """Reject a trait index the phenotype table does not have."""
    for t in traits:
        if not 0 <= t < phenos.traits:
            raise ConfigError(f"trait index {t} out of range for {phenos.traits} traits")


def build_sequences(g: GenotypeMatrix, phenos: PhenotypeTable, trait: int,
                    chunk_width: int, normalization: str = "scaled") -> SequenceBatch:
    """Cut each sample's SNP row into fixed-width timestep chunks.

    The genotype matrix must be fully observed (impute first). Rows are
    split into ceil(snps / chunk_width) consecutive chunks, the last one
    zero-padded. Samples whose trait value is missing are excluded and
    reported via ``excluded``. Normalization "scaled" maps codes {0,1,2}
    to {0, 0.5, 1}; "raw" keeps the codes.
    """
    x = genotype_sequences(g, chunk_width, normalization)
    if g.samples != phenos.samples:
        raise DataError(f"genotype has {g.samples} samples but phenotypes have {phenos.samples}")
    check_traits([trait], phenos)
    t_seq = x.shape[1]

    keep = phenos.observed[:, trait]
    excluded = np.nonzero(~keep)[0].tolist()
    targets = phenos.values[keep, trait][:, None]
    return SequenceBatch(x[keep], targets, t_seq, chunk_width,
                         np.nonzero(keep)[0], excluded)


def genotype_sequences(g: GenotypeMatrix, chunk_width: int,
                       normalization: str = "scaled") -> np.ndarray:
    """Chunk a fully observed genotype matrix into (samples, timesteps, width)."""
    if not g.fully_observed():
        raise StateError("genotype matrix has unobserved cells; impute before building sequences")
    if chunk_width < 1:
        raise ConfigError(f"chunk_width must be >= 1, got {chunk_width}")
    if normalization not in NORMALIZATIONS:
        raise ConfigError(f"unknown normalization {normalization!r}")
    u, v = g.samples, g.snps
    t_seq = math.ceil(v / chunk_width)
    x = np.zeros((u, t_seq * chunk_width))
    x[:, :v] = g.codes.astype(np.float64)
    if normalization == "scaled":
        x *= 0.5
    return x.reshape(u, t_seq, chunk_width)

