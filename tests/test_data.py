import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoseq.data import (GenotypeMatrix, MISSING_SENTINEL, SequenceBatch, build_sequences,
                          encode_calls, genotype_sequences, genotype_to_csv,
                          parse_genotype_csv, parse_phenotype_csv, phenotype_to_csv,
                          split_dataset, synth_lowrank_genotypes, synth_phenotypes,
                          synth_population_genotypes)
from genoseq.errors import ConfigError, ParseError, StateError
from genoseq.linalg import Rng


class TestEncodeCalls:
    def test_canonical_tokens(self):
        assert encode_calls(["AA", "AB", "BB", "Null"]) == [0, 1, 2, 5]

    def test_empty(self):
        assert encode_calls([]) == []

    def test_case_insensitive(self):
        assert encode_calls(["aa", "bb"]) == [0, 2]

    def test_numeric_passthrough(self):
        assert encode_calls(["0", "1", "2", "5"]) == [0, 1, 2, 5]

    def test_unknown_token_carries_position(self):
        with pytest.raises(ParseError) as exc:
            encode_calls(["AA", "XY"])
        assert exc.value.col == 1


class TestGenotypeCsv:
    def test_direct_transcription(self):
        g = parse_genotype_csv(b"s1,s2,s3\n0,5,2\n1,1,0\n")
        np.testing.assert_array_equal(g.codes, [[0, 5, 2], [1, 1, 0]])
        np.testing.assert_array_equal(g.observed, [[True, False, True], [True, True, True]])
        assert g.snp_ids == ["s1", "s2", "s3"]

    def test_token_body(self):
        g = parse_genotype_csv(b"a,b\nAA,Null\nBB,AB\n")
        np.testing.assert_array_equal(g.codes, [[0, 5], [2, 1]])

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError):
            parse_genotype_csv(b"a,b,c\n0,1,2\n0,1\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            parse_genotype_csv(b"")

    def test_bad_cell_carries_location(self):
        with pytest.raises(ParseError) as exc:
            parse_genotype_csv(b"a,b\n0,XX\n")
        assert exc.value.row == 1 and exc.value.col == 1

    def test_crlf_accepted(self):
        g = parse_genotype_csv(b"a,b\r\n1,2\r\n")
        np.testing.assert_array_equal(g.codes, [[1, 2]])

    def test_paper_scale_dimensions(self):
        header = ",".join(f"s{j}" for j in range(1980))
        row = ",".join("1" for _ in range(1980))
        body = "\n".join([header] + [row] * 604)
        g = parse_genotype_csv(body.encode())
        assert g.samples == 604 and g.snps == 1980

    def test_round_trip_exact(self):
        holed, _ = synth_lowrank_genotypes(17, 23, rank=3, missing_frac=0.2, seed=5)
        buf = io.StringIO()
        genotype_to_csv(holed, buf)
        again = parse_genotype_csv(buf.getvalue().encode())
        assert again.codes.tobytes() == holed.codes.tobytes()
        assert again.observed.tobytes() == holed.observed.tobytes()


class TestPhenotypeCsv:
    def test_direct_transcription(self):
        p = parse_phenotype_csv(b"t1,t2\n1.5,NA\n2.0,3.0\n")
        assert p.values[0, 0] == 1.5 and p.values[1, 1] == 3.0
        np.testing.assert_array_equal(p.observed, [[True, False], [True, True]])

    def test_header_only_gives_zero_samples(self):
        p = parse_phenotype_csv(b"t1,t2\n")
        assert p.samples == 0 and p.traits == 2

    def test_two_trait_file(self):
        p = parse_phenotype_csv(b"trait1,trait2\n0.1,0.2\n")
        assert p.traits == 2

    def test_empty_cell_is_missing(self):
        p = parse_phenotype_csv(b"t\n\n1.0\n")
        # blank line is skipped entirely; only the 1.0 row remains
        assert p.samples == 1

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(ParseError):
            parse_phenotype_csv(b"t\nabc\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_rejected_with_location(self, cell):
        with pytest.raises(ParseError, match=r"non-finite .*\(row 2, column 1\)"):
            parse_phenotype_csv(f"t1,t2\n1.0,2.0\n3.0,{cell}\n".encode())

    def test_round_trip(self):
        p = parse_phenotype_csv(b"t1,t2\n1.5,NA\n-2.25,3.0\n")
        buf = io.StringIO()
        phenotype_to_csv(p, buf)
        again = parse_phenotype_csv(buf.getvalue().encode())
        assert again.values[np.where(again.observed)].tolist() == \
            p.values[np.where(p.observed)].tolist()
        assert again.observed.tobytes() == p.observed.tobytes()


class TestSplitDataset:
    def test_eighty_ten_ten(self):
        s = split_dataset(10, (0.8, 0.1, 0.1), seed=1)
        assert (len(s.train), len(s.validation), len(s.test)) == (8, 1, 1)

    def test_remainder_goes_to_train(self):
        # floor(0.8*5)=4, floor(0.1*5)=0 twice; the leftover sample joins train
        s = split_dataset(5, (0.8, 0.1, 0.1), seed=1)
        assert (len(s.train), len(s.validation), len(s.test)) == (5, 0, 0)

    def test_deterministic(self):
        a = split_dataset(100, (0.8, 0.1, 0.1), seed=9)
        b = split_dataset(100, (0.8, 0.1, 0.1), seed=9)
        assert a.train.tolist() == b.train.tolist()
        assert a.test.tolist() == b.test.tolist()

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(10, (0.8, 0.1, 0.2), seed=1)
        with pytest.raises(ConfigError):
            split_dataset(10, (1.0, 0.0, 0.0), seed=1)

    def test_partition_property_many_draws(self):
        # union covers everything, pairwise disjoint, across many (n, seed) draws
        rng = Rng(77)
        for _ in range(1000):
            n = rng.randint(3, 203)
            seed = int(rng.raw(1)[0])
            s = split_dataset(n, (0.6, 0.2, 0.2), seed)
            merged = np.concatenate([s.train, s.validation, s.test])
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


def dechunk(batch: SequenceBatch, snps: int, normalization: str = "scaled") -> np.ndarray:
    """Invert build_sequences: recover the (rows, snps) genotype codes."""
    flat = batch.inputs.reshape(len(batch), -1)[:, :snps]
    if normalization == "scaled":
        flat = flat * 2.0
    return np.rint(flat).astype(np.int16)


def _small_dataset(u=6, v=7, missing_trait_rows=()):
    _, truth = synth_lowrank_genotypes(u, v, rank=2, missing_frac=0.0, seed=11)
    phenos = synth_phenotypes(truth, traits=2, seed=12)
    for r in missing_trait_rows:
        phenos.observed[r, 0] = False
    return truth, phenos


class TestBuildSequences:
    def test_exact_division(self):
        g, p = _small_dataset(u=4, v=6)
        batch = build_sequences(g, p, trait=0, chunk_width=3)
        assert batch.timesteps == 2
        assert batch.inputs.shape == (4, 2, 3)

    def test_paper_scale_chunking(self):
        assert -(-1980 // 20) == 99  # ceil(1980 / 20)
        g, p = _small_dataset(u=2, v=1980)
        batch = build_sequences(g, p, trait=0, chunk_width=20)
        assert batch.timesteps == 99

    def test_padding_rule(self):
        g, p = _small_dataset(u=3, v=5)
        batch = build_sequences(g, p, trait=0, chunk_width=3, normalization="raw")
        assert batch.timesteps == 2
        np.testing.assert_array_equal(batch.inputs[:, 1, 2], np.zeros(3))
        np.testing.assert_array_equal(batch.inputs[0, 1, :2], g.codes[0, 3:5].astype(float))

    def test_scaled_normalization(self):
        g, p = _small_dataset(u=3, v=4)
        batch = build_sequences(g, p, trait=0, chunk_width=2)
        assert set(np.unique(batch.inputs)) <= {0.0, 0.5, 1.0}

    def test_missing_trait_samples_excluded(self):
        g, p = _small_dataset(u=6, v=4, missing_trait_rows=(1, 4))
        batch = build_sequences(g, p, trait=0, chunk_width=2)
        assert len(batch) == 4
        assert batch.excluded == [1, 4]
        assert 1 not in batch.sample_indices and 4 not in batch.sample_indices

    def test_unimputed_matrix_rejected(self):
        holed, _ = synth_lowrank_genotypes(5, 6, rank=2, missing_frac=0.2, seed=2)
        phenos = synth_phenotypes(_small_dataset(5, 6)[0], seed=1)
        with pytest.raises(StateError):
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
