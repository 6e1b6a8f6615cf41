import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genoseq.data import (DataSettings, GenotypeMatrix, MISSING_SENTINEL, PhenotypeTable,
                          SequenceBatch, build_sequences, _parse_canonical, genotype_sequences,
                          genotype_to_csv, parse_genotype_csv, parse_phenotype_csv,
                          phenotype_to_csv, synth_lowrank_genotypes, synth_phenotypes,
                          synth_population_genotypes)
from genoseq.errors import ConfigError, DataError, ParseError
from genoseq.linalg import Rng

_SCRATCH = tempfile.TemporaryDirectory()  # removed when the test process exits
INPUT = Path(_SCRATCH.name) / "input.csv"


def _parsed(parse, source: bytes, path=INPUT):
    """``parse`` of the file ``path``, after writing ``source`` to it: the readers take a path."""
    path.write_bytes(source)
    return parse(path)


class TestGenotypeCsv:
    def test_direct_transcription(self):
        g = _parsed(parse_genotype_csv, b"s1,s2,s3\n0,5,2\n1,1,0\n")
        np.testing.assert_array_equal(g.codes, [[0, 5, 2], [1, 1, 0]])
        np.testing.assert_array_equal(g.observed, [[True, False, True], [True, True, True]])
        assert g.snp_ids == ["s1", "s2", "s3"]

    @pytest.mark.parametrize("source", [b"a,b\nAA,Null\nBB,AB\n", b"a,b\naa,null\nbb,ab\n",
                                        b"a,b\n0,nULL\nbB,1\n", b"a,b\n AA ,5\r\n2, Ab\r\n"],
                             ids=["tokens", "lower_case", "numeric_and_tokens", "padded_crlf"])
    def test_token_body(self, source):
        g = _parsed(parse_genotype_csv, source)
        np.testing.assert_array_equal(g.codes, [[0, 5], [2, 1]])
        np.testing.assert_array_equal(g.observed, [[True, False], [True, True]])

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError):
            _parsed(parse_genotype_csv, b"a,b,c\n0,1,2\n0,1\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            _parsed(parse_genotype_csv, b"")

    @pytest.mark.parametrize("source, row, col", [(b"a,b\n0,XX\n", 1, 1),
                                                  (b"a,b,c\naa,1,Null\n\nAB,XY,2\n", 3, 1)],
                             ids=["first_row", "after_blank_line"])
    def test_bad_cell_carries_location(self, source, row, col):
        with pytest.raises(ParseError) as exc:
            _parsed(parse_genotype_csv, source)
        assert exc.value.row == row and exc.value.col == col

    def test_crlf_accepted(self):
        g = _parsed(parse_genotype_csv, b"a,b\r\n1,2\r\n")
        np.testing.assert_array_equal(g.codes, [[1, 2]])

    def test_paper_scale_dimensions(self):
        header = ",".join(f"s{j}" for j in range(1980))
        row = ",".join("1" for _ in range(1980))
        body = "\n".join([header] + [row] * 604)
        g = _parsed(parse_genotype_csv, body.encode())
        assert g.samples == 604 and g.snps == 1980

    def test_round_trip_exact(self, tmp_path):
        holed, _ = synth_lowrank_genotypes(17, 23, rank=3, missing_frac=0.2, seed=5)
        genotype_to_csv(holed, tmp_path / "geno.csv")
        again = parse_genotype_csv(tmp_path / "geno.csv")
        assert again.codes.tobytes() == holed.codes.tobytes()
        assert again.observed.tobytes() == holed.observed.tobytes()

    @given(hnp.arrays(np.int8, st.tuples(st.integers(0, 6), st.integers(1, 6)),
                      elements=st.sampled_from([0, 1, 2, MISSING_SENTINEL])))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_keeps_every_code_and_hole(self, tmp_path, codes):
        genotype_to_csv(GenotypeMatrix(codes), tmp_path / "g.csv")
        again = parse_genotype_csv(tmp_path / "g.csv")
        assert again.codes.dtype == np.int8 and again.codes.shape == codes.shape
        assert again.codes.tobytes() == codes.tobytes()
        np.testing.assert_array_equal(again.observed, codes != MISSING_SENTINEL)

    @pytest.mark.parametrize("codes", [np.array([[1, 300]], np.int16), [[-129, 0]], [[1, np.nan]]],
                             ids=["int16_300", "list_-129", "nan"])
    def test_code_outside_int8_is_a_data_error(self, codes):
        # 300 cast to int8 would wrap to 44 without a word
        with pytest.raises(DataError, match="genotype codes must fit in int8"):
            GenotypeMatrix(codes)

    def test_codes_are_one_byte_and_keep_their_values(self):
        wide = np.array([[-128, 0, 1, 2, MISSING_SENTINEL, 127]], np.int16)
        g = GenotypeMatrix(wide)
        assert g.codes.dtype == np.int8 and g.codes.tolist() == wide.tolist()
        assert GenotypeMatrix(g.codes).codes is g.codes  # int8 codes are kept, not copied

    def test_observed_is_derived_and_read_only(self):
        g = GenotypeMatrix([[MISSING_SENTINEL, 1], [2, 0]])
        with pytest.raises(ValueError, match="read-only"):
            g.observed[0, 0] = True
        np.testing.assert_array_equal(g.observed, [[False, True], [True, True]])


REFERENCE_CODES = {"AA": 0, "AB": 1, "BB": 2, "NULL": 5, "0": 0, "1": 1, "2": 2, "5": 5}


def _parse_reference(path) -> GenotypeMatrix:
    """The per-token genotype parser: every cell stripped, upper-cased and looked up."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e.reason}") from None
    reader = csv.reader(io.StringIO(text))
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
        row = []
        for c, cell in enumerate(cells):
            if cell.strip().upper() not in REFERENCE_CODES:
                raise ParseError(f"unrecognized genotype call {cell!r}", row=r + 1, col=c)
            row.append(REFERENCE_CODES[cell.strip().upper()])
        rows.append(row)
    codes = np.array(rows, dtype=np.int16).reshape(len(rows), n_snps)
    return GenotypeMatrix(codes, snp_ids)


def _outcome(parse, source: bytes, path=INPUT):
    try:
        g = _parsed(parse, source, path)
    except ParseError as e:
        return ("error", str(e), e.row, e.col)
    return ("ok", g.codes.dtype, g.codes.tobytes(), g.codes.shape, g.observed.tobytes(),
            g.snp_ids)


CALL_TOKENS = ["0", "1", "2", "5", "AA", "ab", " BB ", "Null", "nUlL"]
BAD_TOKENS = ["", "3", " 3 ", "-1", "05", "A A", "AAB", "x", "None", "0.0", "é"]


@st.composite
def _token_grids(draw):
    """CSV bytes of a token grid; with some chance a few cells are replaced by bad tokens."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(st.sampled_from(CALL_TOKENS), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if rows and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            grid[r][c] = draw(st.sampled_from(BAD_TOKENS))
    lines = [",".join(f"s{j}" for j in range(cols))] + [",".join(row) for row in grid]
    return ("\n".join(lines) + "\n").encode()


NEAR_CANONICAL_EDITS = ["none", "crlf", "no_final_newline", "trailing_blank_line", "one_aa",
                        "quoted_header", "empty_header", "header_only", "non_utf8_header",
                        "utf8_header"]


def _near_canonical_bytes(grid, cols, edit, cell=(0, 0)):
    """A grid of codes in the layout genotype_to_csv writes, then the named edit."""
    header = b",".join(b"s%d" % j for j in range(cols))
    rows = [[c.encode() for c in row] for row in grid]
    if edit == "one_aa" and rows:
        rows[cell[0]][cell[1]] = b"AA"
    if edit == "quoted_header":
        header = b",".join(b'"s%d"' % j for j in range(cols))
    elif edit == "empty_header":
        header = b""
    elif edit == "non_utf8_header":
        header = b"s\xff" + header
    elif edit == "utf8_header":
        header = "é".encode() + header
    lines = [header] + ([] if edit == "header_only" else [b",".join(row) for row in rows])
    eol = b"\r\n" if edit == "crlf" else b"\n"
    source = eol.join(lines) + (b"" if edit == "no_final_newline" else eol)
    return source + b"\n" if edit == "trailing_blank_line" else source


@st.composite
def _near_canonical(draw):
    """Canonical genotype CSV bytes, or the same bytes one edit away from that layout."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(st.sampled_from("0125"), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    cell = (draw(st.integers(0, max(rows - 1, 0))), draw(st.integers(0, cols - 1)))
    return _near_canonical_bytes(grid, cols, draw(st.sampled_from(NEAR_CANONICAL_EDITS)), cell)


class TestGenotypeCodec:
    @pytest.mark.parametrize("edit", NEAR_CANONICAL_EDITS)
    def test_each_near_canonical_edit_matches_reference(self, edit):
        source = _near_canonical_bytes([["0", "5", "2"], ["1", "1", "0"]], 3, edit, (1, 2))
        assert (_parse_canonical(source) is not None) == (edit in ("none", "header_only"))
        assert _outcome(parse_genotype_csv, source) == _outcome(_parse_reference, source)

    @pytest.mark.parametrize("edit", NEAR_CANONICAL_EDITS)
    def test_parse_of_another_file_differs_only_in_the_name(self, tmp_path, edit):
        source = _near_canonical_bytes([["0", "5"], ["2", "1"], ["1", "1"]], 2, edit, (2, 0))
        path = tmp_path / "g.csv"
        expected = _outcome(parse_genotype_csv, source)
        if expected[0] == "error":  # each message names the file it read
            expected = ("error", expected[1].replace(str(INPUT), str(path)), *expected[2:])
        assert _outcome(parse_genotype_csv, source, path) == expected

    @given(_token_grids() | _near_canonical())
    @settings(max_examples=500, deadline=None)
    def test_parse_matches_per_token_reference(self, source):
        assert _outcome(parse_genotype_csv, source) == _outcome(_parse_reference, source)

    @pytest.mark.parametrize("source", [b"a,b\n0,AA\nx,1\n", b"a,b\n0,aa\n1,Y\n",
                                        b"a,b\n AA,1\n0\n", b"a,b\n0,1\n0,1,2\n",
                                        b"a,b\nZ,1\n0\n", b"a\n\n\n 1\n"])
    def test_error_or_result_matches_reference(self, source):
        assert _outcome(parse_genotype_csv, source) == _outcome(_parse_reference, source)

    @given(hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_matches_str_of_every_cell(self, tmp_path, codes):
        genotype_to_csv(GenotypeMatrix(codes), tmp_path / "g.csv")
        header = ",".join(f"snp{j}" for j in range(codes.shape[1]))
        lines = [header] + [",".join(map(str, row)) for row in codes.tolist()]
        expected = "".join(line + "\n" for line in lines)
        assert (tmp_path / "g.csv").read_bytes() == expected.encode()

    def test_write_extreme_codes(self, tmp_path):
        codes = np.array([[-128, 127, -1], [0, 10, -100]], dtype=np.int8)
        genotype_to_csv(GenotypeMatrix(codes, ["a", "b", "c"]), tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_text() == "a,b,c\n-128,127,-1\n0,10,-100\n"

    @pytest.mark.parametrize("header", [False, True], ids=["body", "header"])
    @pytest.mark.parametrize("parse", [parse_genotype_csv, parse_phenotype_csv])
    def test_cell_past_the_csv_field_limit_is_a_parse_error(self, tmp_path, parse, header):
        long = b"1" * (csv.field_size_limit() + 1)
        path = tmp_path / "long.csv"
        path.write_bytes(long + b",b\n1,2\n" if header else b"a,b\n1,2\n" + long + b",2\n")
        with pytest.raises(ParseError, match="long.csv is not readable CSV: field larger"):
            parse(path)

    def test_header_cell_at_the_csv_field_limit_parses_on_either_path(self):
        source = b"1" * csv.field_size_limit() + b",b\n1,2\n"
        assert _parse_canonical(source) is not None
        for tail in (b"", b"0,AA\n"):  # the canonical path, then the csv path
            assert _outcome(parse_genotype_csv, source + tail) == _outcome(_parse_reference, source + tail)

    def test_lone_cr_line_ends_parse(self):
        assert _parsed(parse_genotype_csv, b"a,b\rAA,1\r0,2\r").codes.tolist() == [[0, 1], [0, 2]]

    @pytest.mark.parametrize("parse", [parse_genotype_csv, parse_phenotype_csv])
    def test_non_utf8_is_a_parse_error(self, tmp_path, parse):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"\xff,1\n")  # past the first read buffer
        with pytest.raises(ParseError, match="bad.csv is not UTF-8 text"):
            parse(path)
        with pytest.raises(ParseError, match="input.csv is not UTF-8 text"):
            _parsed(parse, b"a,b\n\xff,1\n")


class TestPhenotypeCsv:
    def test_direct_transcription(self):
        p = _parsed(parse_phenotype_csv, b"t1,t2\n1.5,NA\n2.0,3.0\n")
        assert p.values[0, 0] == 1.5 and p.values[1, 1] == 3.0
        np.testing.assert_array_equal(p.observed, [[True, False], [True, True]])

    def test_header_only_gives_zero_samples(self):
        p = _parsed(parse_phenotype_csv, b"t1,t2\n")
        assert p.samples == 0 and p.traits == 2

    def test_two_trait_file(self):
        p = _parsed(parse_phenotype_csv, b"trait1,trait2\n0.1,0.2\n")
        assert p.traits == 2

    def test_empty_cell_is_missing(self):
        p = _parsed(parse_phenotype_csv, b"t\n\n1.0\n")
        # blank line is skipped entirely; only the 1.0 row remains
        assert p.samples == 1

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(ParseError):
            _parsed(parse_phenotype_csv, b"t\nabc\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_rejected_with_location(self, cell):
        with pytest.raises(ParseError, match=r"non-finite .*\(row 2, column 1\)"):
            _parsed(parse_phenotype_csv, f"t1,t2\n1.0,2.0\n3.0,{cell}\n".encode())

    def test_round_trip(self, tmp_path):
        p = _parsed(parse_phenotype_csv, b"t1,t2\n1.5,NA\n-2.25,3.0\n")
        phenotype_to_csv(p, tmp_path / "pheno.csv")
        again = parse_phenotype_csv(tmp_path / "pheno.csv")
        assert again.values[np.where(again.observed)].tolist() == \
            p.values[np.where(p.observed)].tolist()
        assert again.observed.tobytes() == p.observed.tobytes()

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 6)),
                      elements=st.floats(allow_nan=False, allow_infinity=False) | st.just(math.nan)))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_keeps_every_value_and_hole(self, tmp_path, values):
        phenotype_to_csv(PhenotypeTable(values), tmp_path / "p.csv")
        again = parse_phenotype_csv(tmp_path / "p.csv")
        assert again.values.shape == values.shape
        np.testing.assert_array_equal(np.isnan(again.values), np.isnan(values))
        assert again.values[~np.isnan(values)].tobytes() == values[~np.isnan(values)].tobytes()

    def test_observed_is_derived_and_read_only(self):
        p = PhenotypeTable([[1.5, math.nan], [-2.0, 0.0]])
        with pytest.raises(ValueError, match="read-only"):
            p.observed[0, 1] = True
        np.testing.assert_array_equal(p.observed, [[True, False], [True, True]])


class TestSplitDataset:
    def test_eighty_ten_ten(self):
        s = DataSettings(ratios=(0.8, 0.1, 0.1)).split(10, seed=1)
        assert list(s) == ["train", "validation", "test"]
        assert (len(s["train"]), len(s["validation"]), len(s["test"])) == (8, 1, 1)

    def test_remainder_goes_to_train(self):
        # floor(0.8*5)=4, floor(0.1*5)=0 twice; the leftover sample joins train
        s = DataSettings(ratios=(0.8, 0.1, 0.1)).split(5, seed=1)
        assert list(s) == ["train", "validation", "test"]
        assert (len(s["train"]), len(s["validation"]), len(s["test"])) == (5, 0, 0)

    def test_deterministic(self):
        a = DataSettings(ratios=(0.8, 0.1, 0.1)).split(100, seed=9)
        b = DataSettings(ratios=(0.8, 0.1, 0.1)).split(100, seed=9)
        assert a["train"].tolist() == b["train"].tolist()
        assert a["test"].tolist() == b["test"].tolist()

    @pytest.mark.parametrize("ratios", [(0.8, 0.1, 0.2), (1.0, 0.0, 0.0)])
    def test_bad_ratios_rejected_when_the_settings_are_built(self, ratios):
        with pytest.raises(ConfigError) as exc:
            DataSettings(ratios=ratios)
        assert str(exc.value) == f"ratios must be three positive numbers summing to 1, got {ratios}"

    def test_partition_property_many_draws(self):
        # union covers everything, pairwise disjoint, across many (n, seed) draws
        rng, data_settings = Rng(77), DataSettings(ratios=(0.6, 0.2, 0.2))
        for _ in range(1000):
            n = rng.randint(3, 203)
            seed = int(rng.raw(1)[0])
            s = data_settings.split(n, seed)
            merged = np.concatenate([s["train"], s["validation"], s["test"]])
            assert len(merged) == n
            assert len(np.unique(merged)) == n


class TestSynthLowrank:
    def test_no_holes_case(self):
        holed, truth = synth_lowrank_genotypes(10, 12, rank=2, missing_frac=0.0, seed=3)
        assert holed.observed.all()
        assert holed.codes.tobytes() == truth.codes.tobytes()

    def test_exact_hole_count(self):
        holed, _ = synth_lowrank_genotypes(100, 200, rank=5, missing_frac=0.05, seed=3)
        assert int((~holed.observed).sum()) == 1000

    def test_codes_in_range(self):
        holed, truth = synth_lowrank_genotypes(30, 40, rank=4, missing_frac=0.1, seed=8)
        assert set(np.unique(truth.codes)) <= {0, 1, 2}
        assert set(np.unique(holed.codes[holed.observed])) <= {0, 1, 2}
        assert (holed.codes[~holed.observed] == MISSING_SENTINEL).all()

    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_numeric_rank_bound(self, rank):
        # reconstruct the pre-rounding matrix the same way the generator does
        rng = Rng(13)
        if rank == 1:
            a = rng.uniform((20, 1))
            b = rng.uniform((25, 1))
            raw = a @ b.T
            raw *= 2.0 / raw.max()
        else:
            a = rng.uniform((20, rank - 1), -1.0, 1.0)
            b = rng.uniform((25, rank - 1), -1.0, 1.0)
            raw = a @ b.T
            lo, hi = raw.min(), raw.max()
            raw = (raw - lo) * (2.0 / (hi - lo))
        sv = np.linalg.svd(raw, compute_uv=False)
        assert (sv[rank:] < 1e-9).all()
        assert raw.min() >= 0.0 and raw.max() <= 2.0

    def test_snp_block_mode(self):
        holed, truth = synth_lowrank_genotypes(50, 60, rank=3, missing_frac=0.2,
                                               seed=4, missing_mode="snp_block")
        holes_per_snp = (~holed.observed).sum(axis=0)
        assert (holes_per_snp > 0).sum() <= 12  # at most 20% of 60 SNPs affected
        assert (~holed.observed).any()

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            synth_lowrank_genotypes(10, 10, rank=0, missing_frac=0.1, seed=1)
        with pytest.raises(ConfigError):
            synth_lowrank_genotypes(10, 10, rank=2, missing_frac=1.0, seed=1)


class TestSynthPopulation:
    def test_rank_bound(self):
        _, truth = synth_population_genotypes(40, 50, groups=6, missing_frac=0.0, seed=2)
        sv = np.linalg.svd(truth.codes.astype(float), compute_uv=False)
        assert (sv[6:] < 1e-9).all()

    def test_codes_spread_over_all_three(self):
        _, truth = synth_population_genotypes(60, 80, groups=8, missing_frac=0.0, seed=5)
        counts = np.bincount(truth.codes.reshape(-1), minlength=3)
        assert (counts > 0).all()


class TestSynthPhenotypes:
    def test_shape_and_missing(self):
        _, truth = synth_lowrank_genotypes(40, 30, rank=3, missing_frac=0.0, seed=1)
        p = synth_phenotypes(truth, traits=2, seed=9, missing_per_trait=5)
        assert p.samples == 40 and p.traits == 2
        assert int((~p.observed).sum(axis=0)[0]) == 5
        assert int((~p.observed).sum(axis=0)[1]) == 5

    def test_deterministic(self):
        _, truth = synth_lowrank_genotypes(20, 15, rank=2, missing_frac=0.0, seed=1)
        a = synth_phenotypes(truth, seed=4)
        b = synth_phenotypes(truth, seed=4)
        assert a.values.tobytes() == b.values.tobytes()


def dechunk(batch: SequenceBatch, snps: int) -> np.ndarray:
    """Invert build_sequences: recover the (rows, snps) genotype codes."""
    flat = batch.inputs.reshape(len(batch), -1)[:, :snps]
    return np.rint(flat * 2.0).astype(np.int16)


def _small_dataset(u=6, v=7, missing_trait_rows=()):
    _, truth = synth_lowrank_genotypes(u, v, rank=2, missing_frac=0.0, seed=11)
    phenos = synth_phenotypes(truth, traits=2, seed=12)
    for r in missing_trait_rows:
        phenos.values[r, 0] = np.nan
    return truth, phenos


class TestBuildSequences:
    def test_exact_division(self):
        g, p = _small_dataset(u=4, v=6)
        batch = build_sequences(g, p, trait=0, chunk_width=3)
        assert batch.inputs.shape == (4, 2, 3)

    def test_paper_scale_chunking(self):
        assert -(-1980 // 20) == 99  # ceil(1980 / 20)
        g, p = _small_dataset(u=2, v=1980)
        batch = build_sequences(g, p, trait=0, chunk_width=20)
        assert batch.inputs.shape[1] == 99

    def test_padding_rule(self):
        g, p = _small_dataset(u=3, v=5)
        batch = build_sequences(g, p, trait=0, chunk_width=3)
        assert batch.inputs.shape[1] == 2
        np.testing.assert_array_equal(batch.inputs[:, 1, 2], np.zeros(3))
        np.testing.assert_array_equal(batch.inputs[0, 1, :2], g.codes[0, 3:5] * 0.5)

    def test_scaled_normalization(self):
        g, p = _small_dataset(u=3, v=4)
        batch = build_sequences(g, p, trait=0, chunk_width=2)
        assert set(np.unique(batch.inputs)) <= {0.0, 0.5, 1.0}

    def test_missing_trait_samples_excluded(self):
        g, p = _small_dataset(u=6, v=4, missing_trait_rows=(1, 4))
        batch = build_sequences(g, p, trait=0, chunk_width=2)
        assert len(batch) == 4
        assert 1 not in batch.sample_indices and 4 not in batch.sample_indices

    def test_unimputed_matrix_rejected(self):
        holed, _ = synth_lowrank_genotypes(5, 6, rank=2, missing_frac=0.2, seed=2)
        phenos = synth_phenotypes(_small_dataset(5, 6)[0], seed=1)
        with pytest.raises(DataError, match="unobserved cells"):
            build_sequences(holed, phenos, trait=0, chunk_width=2)

    def test_trait_out_of_range(self):
        g, p = _small_dataset()
        with pytest.raises(ConfigError, match="trait index 5 out of range"):
            build_sequences(g, p, trait=5, chunk_width=2)

    @given(st.integers(1, 12), st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_dechunk_recovers_rows(self, chunk_width, v):
        g, p = _small_dataset(u=5, v=v)
        batch = build_sequences(g, p, trait=0, chunk_width=chunk_width)
        recovered = dechunk(batch, g.snps)
        np.testing.assert_array_equal(recovered, g.codes[batch.sample_indices])

    def test_subset_by_samples(self):
        g, p = _small_dataset(u=8, v=4)
        batch = build_sequences(g, p, trait=0, chunk_width=2)
        sub = batch.subset_by_samples([5, 2, 7])
        assert sorted(sub.sample_indices.tolist()) == [2, 5, 7]
        assert sub.inputs.shape[0] == 3

    def test_genotype_sequences_matches_batch_inputs(self):
        g, p = _small_dataset(u=4, v=7)
        batch = build_sequences(g, p, trait=0, chunk_width=3)
        x = genotype_sequences(g, 3)
        np.testing.assert_array_equal(x[batch.sample_indices], batch.inputs)
