"""Tests for the command-line surface: exit codes and the adareg weights."""

import inspect
import struct
import zlib

import numpy as np
import pytest

from voxelmatch import alignment, cli, model as model_mod
from voxelmatch.geometry import Point3
from voxelmatch.matching import FixpointConfig, SimilarityWeights, grid_match
from voxelmatch.metrics import write_landmarks
from voxelmatch.config import load_config
from voxelmatch.model import DescriptorBank, ProjectionModel, embed, new_model, save_model
from voxelmatch.phantom import PhantomSpec, gen_phantom
from voxelmatch.volume import (
    Box3,
    EmbeddingVolume,
    LabelVolume,
    ScalarVolume,
    VolumeGeometry,
    crop,
    read_volume,
    resample,
    unit_rows,
    write_volume,
)


def write_lms(path, n=3):
    write_landmarks(path, [(f"lm{i}", Point3(float(i), 2.0 * i, 3.0)) for i in range(n)])


class TestEvalExitCodes:
    def test_well_formed_files_exit_zero(self, tmp_path, capsys):
        write_lms(tmp_path / "pred.txt")
        write_lms(tmp_path / "true.txt")
        assert cli.main(["eval", str(tmp_path / "pred.txt"), str(tmp_path / "true.txt")]) == 0
        assert "med" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "line", [b"lm0 1 2", b"lm0 1 2 3 4", b"lm0 1 two 3", b"b 4 5 6 \xe9", b"lm0 1 2 3\nlm0 4 5 6"],
    )
    def test_malformed_landmark_line_is_a_data_error(self, tmp_path, capsys, line):
        write_lms(tmp_path / "true.txt")
        (tmp_path / "pred.txt").write_bytes(line + b"\n")
        code = cli.main(["eval", str(tmp_path / "pred.txt"), str(tmp_path / "true.txt")])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "pred.txt:1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
    def test_threshold_that_is_not_finite_and_positive_is_a_usage_error(self, tmp_path, capsys, threshold):
        # CPM counts distances strictly below the threshold, so no run can mean these
        write_lms(tmp_path / "lms.txt")
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", str(tmp_path / "lms.txt"), str(tmp_path / "lms.txt"), "--threshold", threshold])
        assert exc.value.code == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert "--threshold must be finite and positive" in err
        assert out == ""

    @pytest.mark.parametrize("line", ["lm0", "lm0 wide", "lm0 -1", "lm0 0", "lm0 nan", "lm0 inf"])
    def test_malformed_radii_line_is_a_data_error(self, tmp_path, capsys, line):
        write_lms(tmp_path / "pred.txt")
        write_lms(tmp_path / "true.txt")
        (tmp_path / "radii.txt").write_text(f"{line}\nlm1 4\nlm2 4\n")
        code = cli.main([
            "eval", str(tmp_path / "pred.txt"), str(tmp_path / "true.txt"),
            "--radii", str(tmp_path / "radii.txt"),
        ])
        assert code == cli.DATA_ERROR
        assert "radii.txt:1" in capsys.readouterr().err


class TestRunConfigExitCodes:
    @pytest.mark.parametrize(
        "command", [["eval", "lms.txt", "lms.txt"], ["phantom-gen", "out"]], ids=["eval", "phantom-gen"]
    )
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        write_lms(tmp_path / "lms.txt")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--seed", "-1", command[0], *(str(tmp_path / arg) for arg in command[1:])])
        assert exc.value.code == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert "--seed must be >= 0" in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["seed = abc", "threads = 1.5"])
    def test_non_integer_run_value_is_a_data_error(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"[run]\n{line}\n")
        write_lms(tmp_path / "lms.txt")
        code = cli.main([
            "--config", str(conf), "eval", str(tmp_path / "lms.txt"), str(tmp_path / "lms.txt"),
        ])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "[run]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw", [
        b"steps = 1\n", b"[train]\nsteps = 1\n[train]\nsteps = 2\n", b"[run]\nseed = 1 \xff\n",
    ], ids=["no-section", "duplicate-section", "not-utf8"])
    def test_file_configparser_cannot_parse_is_a_data_error(self, tmp_path, capsys, raw):
        conf = tmp_path / "run.conf"
        conf.write_bytes(raw)
        write_lms(tmp_path / "lms.txt")
        code = cli.main([
            "--config", str(conf), "eval", str(tmp_path / "lms.txt"), str(tmp_path / "lms.txt"),
        ])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert f"cannot parse config file {conf}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section,line", [
            ("train", "feature_dim = 16"), ("augment", "seed = 3"), ("train", "embedding_dim = 32"),
            ("augment", "aggressive = true"), ("augment", "bezier_control_points = 0.2 0.3 0.7 0.8"),
            ("augment", "bezier_control_points = none"),
        ]
    )
    def test_removed_key_is_a_data_error(self, tmp_path, capsys, section, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"[{section}]\n{line}\n")
        write_lms(tmp_path / "lms.txt")
        code = cli.main([
            "--config", str(conf), "eval", str(tmp_path / "lms.txt"), str(tmp_path / "lms.txt"),
        ])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert f"unknown key [{section}]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("conf,train_seed,phantom_seed", [
        ("[run]\nseed = 5\n", 5, 5),
        ("[run]\nseed = 5\n[train]\nseed = 5\n", 5, 5),
        ("[run]\nseed = 5\n[train]\nseed = 0\n", 0, 5),
        ("[run]\nseed = 5\n[phantom]\nseed = 9\n", 5, 9),
        ("[train]\nseed = 4\n", 4, 0),
    ], ids=["run", "train-same", "train-zero", "phantom-own", "train-own"])
    def test_each_section_inherits_the_run_seed_unless_it_sets_its_own(
        self, tmp_path, conf, train_seed, phantom_seed
    ):
        (tmp_path / "run.conf").write_text(conf)
        cfg = load_config(tmp_path / "run.conf")
        assert (cfg.train.seed, cfg.phantom.seed) == (train_seed, phantom_seed)


class TestMatchCommand:
    @staticmethod
    def write_embeddings(path):
        rng = np.random.default_rng(0)
        path.mkdir()
        for head in ("coarse", "fine"):
            rows = unit_rows(rng.normal(size=(216, 4)))[0].reshape(6, 6, 6, 4).astype(np.float32)
            vol = EmbeddingVolume(VolumeGeometry((6, 6, 6)), rows, normalized=True)
            write_volume(vol, path / f"{head}.evf")

    @pytest.mark.parametrize("method", ["nn", "fixpoint"])
    def test_self_match_and_out_of_bounds_exit_codes(self, tmp_path, capsys, method):
        emb = tmp_path / "emb"
        self.write_embeddings(emb)
        code = cli.main(["match", str(emb), "4,6,2", str(emb), "--method", method])
        assert code == 0
        x, y, z, sim, got_method, n_fix = capsys.readouterr().out.split()
        np.testing.assert_allclose([float(x), float(y), float(z), float(sim)], [4, 6, 2, 1], atol=1e-6)
        assert got_method == method
        code = cli.main(["match", str(emb), "40,6,2", str(emb), "--method", method])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "outside the volume" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ["match", "simmap"])
    @pytest.mark.parametrize("point", ["1,2", "a,b,c", "nan,1,1", "inf,1,1"])
    def test_malformed_point_is_a_data_error(self, tmp_path, capsys, command, point):
        emb = tmp_path / "emb"
        self.write_embeddings(emb)
        out = [str(tmp_path / "map.evf")] if command == "simmap" else []
        assert cli.main([command, str(emb), point, str(emb), *out]) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert f"voxelmatch: expected three finite numbers 'x,y,z', got {point!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "map.evf").exists()

    @pytest.mark.parametrize("command", ["match", "simmap"])
    def test_semantic_weight_alone_without_semantic_head_is_a_data_error(self, tmp_path, capsys, command):
        emb = tmp_path / "emb"
        self.write_embeddings(emb)
        conf = tmp_path / "run.conf"
        conf.write_text("[similarity]\nw_coarse = 0\nw_fine = 0\nw_semantic = 1\n")
        out = [str(tmp_path / "map.evf")] if command == "simmap" else []
        assert cli.main(["--config", str(conf), command, str(emb), "4,6,2", str(emb), *out]) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "w_coarse and w_fine are both 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "map.evf").exists()

    def test_scalar_volumes_as_embeddings_are_a_data_error(self, tmp_path, capsys):
        emb = tmp_path / "emb"
        emb.mkdir()
        vol = ScalarVolume(VolumeGeometry((6, 6, 6)), np.random.default_rng(1).uniform(size=(6, 6, 6)))
        for head in ("coarse", "fine"):
            write_volume(vol, emb / f"{head}.evf")
        assert cli.main(["match", str(emb), "2,2,2", str(emb)]) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "coarse.evf: expected EmbeddingVolume, found ScalarVolume" in err
        assert "Traceback" not in err

    def test_normalized_flag_on_non_unit_vectors_is_a_data_error(self, tmp_path, capsys):
        emb = tmp_path / "emb"
        emb.mkdir()
        for head in ("coarse", "fine"):
            write_volume(EmbeddingVolume(VolumeGeometry((4, 4, 4)), np.full((4, 4, 4, 3), 2.0)), emb / f"{head}.evf")
            raw = bytearray((emb / f"{head}.evf").read_bytes())
            raw[48] = 1  # the header's normalized flag; the CRC covers the payload only
            (emb / f"{head}.evf").write_bytes(bytes(raw))
        assert cli.main(["match", str(emb), "2,2,2", str(emb)]) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "non-unit vectors" in err
        assert "Traceback" not in err


class TestMatchInputSets:
    """Embedding directories that ``EmbeddingSet`` or the matcher reject are data errors."""

    @staticmethod
    def write_head(path, head, geom=VolumeGeometry((6, 6, 6)), normalized=True, seed=0):
        rng = np.random.default_rng(seed)
        rows = unit_rows(rng.normal(size=(geom.n_voxels, 4)))[0]
        data = rows.reshape(geom.shape_zyx + (4,)).astype(np.float32)
        path.mkdir(exist_ok=True)
        write_volume(EmbeddingVolume(geom, data, normalized=normalized), path / f"{head}.evf")

    def run(self, tmp_path, command, template, query, conf=""):
        (tmp_path / "run.conf").write_text(conf)
        out = [str(tmp_path / "map.evf")] if command == "simmap" else []
        return cli.main(["--config", str(tmp_path / "run.conf"), command, str(template), "4,6,2", str(query), *out])

    @pytest.mark.parametrize("command", ["match", "simmap"])
    def test_heads_of_different_geometry_are_a_data_error(self, tmp_path, capsys, command):
        emb = tmp_path / "emb"
        self.write_head(emb, "coarse")
        self.write_head(emb, "fine", geom=VolumeGeometry((6, 6, 6), spacing=(2.0, 2.0, 2.0)))
        assert self.run(tmp_path, command, emb, emb) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "embedding heads must share one geometry" in err
        assert "Traceback" not in err
        assert not (tmp_path / "map.evf").exists()

    @pytest.mark.parametrize("command", ["match", "simmap"])
    def test_head_not_flagged_normalized_is_a_data_error(self, tmp_path, capsys, command):
        emb = tmp_path / "emb"
        self.write_head(emb, "coarse")
        self.write_head(emb, "fine", normalized=False)
        assert self.run(tmp_path, command, emb, emb) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "embedding heads must be normalized" in err
        assert "Traceback" not in err
        assert not (tmp_path / "map.evf").exists()

    @pytest.mark.parametrize("command", ["match", "simmap"])
    def test_semantic_weight_with_a_query_lacking_the_head_is_renormalized(self, tmp_path, capsys, command):
        # the weights renormalize when either side lacks the semantic head, so
        # the run equals one whose template has no semantic head either
        template, bare, query = tmp_path / "template", tmp_path / "bare", tmp_path / "query"
        for d in (template, bare):
            self.write_head(d, "coarse", seed=1)
            self.write_head(d, "fine", seed=2)
        self.write_head(template, "semantic", seed=3)
        self.write_head(query, "coarse", seed=4)
        self.write_head(query, "fine", seed=5)
        conf = "[similarity]\nw_coarse = 0.3\nw_fine = 0.5\nw_semantic = 0.2\n"
        results = []
        for t in (template, bare):
            assert self.run(tmp_path, command, t, query, conf) == 0
            out, err = capsys.readouterr()
            assert "Traceback" not in err
            results.append(read_volume(tmp_path / "map.evf").data if command == "simmap" else out)
        if command == "simmap":
            np.testing.assert_array_equal(*results)
        else:
            assert results[0] == results[1]


def write_embedding_evf(path):
    """A 40^3 x 3 embedding volume: valid EVF, but not a scalar or label volume."""
    vol = EmbeddingVolume(VolumeGeometry((40, 40, 40)), np.random.default_rng(0).normal(size=(40, 40, 40, 3)))
    write_volume(vol, path)


class TestEmbedCommand:
    @staticmethod
    def run(tmp_path, mdl):
        vol = resample(gen_phantom(PhantomSpec(dims=(40, 40, 40), seed=8))[0], 2.0)
        write_volume(vol, tmp_path / "vol.evf")
        save_model(mdl, tmp_path / "model.uaem")
        code = cli.main(["embed", str(tmp_path / "vol.evf"), str(tmp_path / "model.uaem"), str(tmp_path / "out")])
        return code, vol

    def test_writes_each_head_as_normalized_map_vectors(self, tmp_path, capsys):
        mdl = new_model(np.random.default_rng(3), with_semantic=True)
        mdl.w_coarse = np.zeros_like(mdl.w_coarse)  # every coarse voxel is a zero vector
        code, vol = self.run(tmp_path, mdl)
        assert code == 0
        assert "wrote embeddings" in capsys.readouterr().out
        feats, _ = DescriptorBank().compute(vol)
        flat = feats.reshape(-1, feats.shape[-1])
        for head in ("coarse", "fine", "semantic"):
            out = read_volume(tmp_path / "out" / f"{head}.evf")
            m = getattr(mdl, f"w_{head}")
            assert out.normalized and out.channels == m.shape[1] == 11
            got = out.data.reshape(-1, m.shape[1])
            if head == "coarse":  # the zero-vector rule: e1
                np.testing.assert_array_equal(got, np.broadcast_to(np.eye(11)[0], got.shape))
                continue
            v = flat @ m
            norms = np.linalg.norm(v, axis=1)
            keep = norms > 1e-12
            np.testing.assert_allclose(got[keep], v[keep] / norms[keep, None], rtol=0, atol=1e-5)

    def test_written_embeddings_keep_their_zero_substitution_counts(self, tmp_path, capsys):
        mdl = new_model(np.random.default_rng(3))
        mdl.w_coarse = np.zeros_like(mdl.w_coarse)
        code, _ = self.run(tmp_path, mdl)
        assert code == 0
        assert read_volume(tmp_path / "out" / "coarse.evf").zero_substitutions == 1000  # every 10^3 voxel
        assert read_volume(tmp_path / "out" / "fine.evf").zero_substitutions == 0

    @pytest.mark.parametrize("cfg", [None, FixpointConfig()], ids=["nn", "fixpoint"])
    def test_matches_on_written_embeddings_equal_those_on_embed_output(self, tmp_path, capsys, cfg):
        mdl = new_model(np.random.default_rng(3), with_semantic=True)
        save_model(mdl, tmp_path / "model.uaem")
        sets = []
        for seed in (62, 66):
            vol = resample(gen_phantom(PhantomSpec(dims=(64, 64, 64), seed=seed))[0], 2.0)
            write_volume(vol, tmp_path / f"{seed}.evf")
            out = tmp_path / f"emb{seed}"
            assert cli.main(["embed", str(tmp_path / f"{seed}.evf"), str(tmp_path / "model.uaem"), str(out)]) == 0
            sets.append((embed(vol, mdl), cli._read_embedding_set(out)))
        (template, template_read), (query, query_read) = sets
        axes = [np.arange(0, n, 4) for n in template.fine.geometry.dims]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3) * 2.0
        assert len(pts) == 64
        w = SimilarityWeights(0.4, 0.4, 0.2)
        got = grid_match(pts, template_read, query_read, w, cfg)
        want = grid_match(pts, template, query, w, cfg)
        for g, r in zip(got, want, strict=True):
            assert (g.point, g.similarity, g.method, g.n_fix, g.n_fixed_points_used) == (
                r.point, r.similarity, r.method, r.n_fix, r.n_fixed_points_used
            )

    def test_non_finite_weights_are_a_data_error(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, new_model(np.random.default_rng(5)))
        assert code == 0
        raw = bytearray((tmp_path / "model.uaem").read_bytes())
        raw[4 + 16:4 + 24] = struct.pack("<d", float("nan"))  # first coarse weight, after magic and header
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[4:-4])) & 0xFFFFFFFF)
        (tmp_path / "model.uaem").write_bytes(bytes(raw))
        capsys.readouterr()
        code = cli.main(["embed", str(tmp_path / "vol.evf"), str(tmp_path / "model.uaem"), str(tmp_path / "out2")])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "weights must be finite" in err
        assert "Traceback" not in err

    def test_embedding_volume_as_input_is_a_data_error(self, tmp_path, capsys):
        write_embedding_evf(tmp_path / "emb.evf")
        save_model(new_model(np.random.default_rng(6)), tmp_path / "model.uaem")
        code = cli.main(["embed", str(tmp_path / "emb.evf"), str(tmp_path / "model.uaem"), str(tmp_path / "out")])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "emb.evf: expected ScalarVolume, found EmbeddingVolume" in err
        assert "Traceback" not in err

    def test_heads_of_the_wrong_feature_dim_are_a_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        code, _ = self.run(tmp_path, ProjectionModel(rng.normal(size=(8, 16)), rng.normal(size=(8, 16))))
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "heads expect 8" in err
        assert "Traceback" not in err


class TestAdaregWeights:
    def test_semantic_weight_without_semantic_head_is_renormalized(
        self, tmp_path, monkeypatch, capsys
    ):
        vol, _, _ = gen_phantom(PhantomSpec(dims=(64, 64, 64), seed=60))
        fixed = resample(vol, 2.0)
        moving = crop(fixed, Box3((4, 4, 4), (27, 27, 27)))
        write_volume(fixed, tmp_path / "fixed.evf")
        write_volume(moving, tmp_path / "moving.evf")
        save_model(new_model(np.random.default_rng(3)), tmp_path / "model.uaem")
        conf = tmp_path / "run.conf"
        conf.write_text(
            "[similarity]\nw_coarse = 0.3\nw_fine = 0.5\nw_semantic = 0.2\n"
            "[align]\ngrid_spacing = 3\nsimilarity_floor = 0.4\nbody_threshold = 0.18\n"
        )
        seen, embedded = [], []
        real, real_embed = alignment.register_and_crop, alignment.embed

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        def embed_spy(*args, **kwargs):
            embedded.append(args[0])
            return real_embed(*args, **kwargs)

        monkeypatch.setattr(alignment, "register_and_crop", spy)
        monkeypatch.setattr(alignment, "embed", embed_spy)
        code = cli.main([
            "--config", str(conf), "adareg", str(tmp_path / "fixed.evf"),
            str(tmp_path / "moving.evf"), str(tmp_path / "model.uaem"), str(tmp_path / "out"),
            "--margin", "4",
        ])
        assert code == 0
        (kwargs,) = seen
        w = kwargs["weights"]
        assert w.w_semantic == 0.0
        np.testing.assert_allclose([w.w_coarse, w.w_fine], [0.375, 0.625], rtol=1e-12)
        # embedded once each, inside register_and_crop
        assert [v.geometry.dims for v in embedded] == [moving.geometry.dims, fixed.geometry.dims]
        assert (tmp_path / "out" / "rigid.txt").exists()
        assert "aligned with" in capsys.readouterr().out


class TestCrossIterSettings:
    def test_fixpoint_and_similarity_sections_reach_registration(
        self, tmp_path, monkeypatch, capsys
    ):
        vol = resample(gen_phantom(PhantomSpec(dims=(48, 48, 48), seed=64))[0], 2.0)
        write_volume(vol, tmp_path / "fixed.evf")
        write_volume(crop(vol, Box3((1, 1, 1), (22, 22, 22))), tmp_path / "moving.evf")
        (tmp_path / "manifest.txt").write_text("fixed.evf moving.evf\n")
        conf = tmp_path / "run.conf"
        conf.write_text(
            "[similarity]\nw_coarse = 0.2\nw_fine = 0.6\nw_semantic = 0.2\n"
            "[fixpoint]\ncube_side = 3\ntau_dis = 3.0\n"
            "[align]\ngrid_spacing = 3\nsimilarity_floor = 0.3\nbody_threshold = 0.18\nmargins = 4\n"
            + TestTrainCommand.CONF
        )
        seen = []
        real = alignment.register_and_crop

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(alignment, "register_and_crop", spy)
        code = cli.main([
            "--config", str(conf), "train", str(tmp_path / "manifest.txt"),
            str(tmp_path / "model.uaem"), "--mode", "cross-iter",
        ])
        assert code == 0
        (kwargs,) = seen
        assert kwargs["fixpoint_cfg"] == FixpointConfig(cube_side=3, tau_dis=3.0)
        w = kwargs["weights"]
        assert w.w_semantic == 0.0
        np.testing.assert_allclose([w.w_coarse, w.w_fine], [0.25, 0.75], rtol=1e-12)
        # stdout holds the metrics table alone, no loss CSV header
        assert capsys.readouterr().out.splitlines()[0] == "k pair inliers residual_mm med_mm"


class TestAdaregSettings:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("adareg")
        vol = resample(gen_phantom(PhantomSpec(dims=(48, 48, 48), seed=64))[0], 2.0)
        write_volume(vol, d / "fixed.evf")
        write_volume(crop(vol, Box3((1, 1, 1), (22, 22, 22))), d / "moving.evf")
        save_model(new_model(np.random.default_rng(3)), d / "model.uaem")
        return d

    @pytest.mark.parametrize("section,key,value", [
        ("align", "trim_fraction", "nan"),
        ("align", "trim_fraction", "0.6"),
        ("align", "trim_fraction", "-0.1"),
        ("align", "similarity_floor", "nan"),
        ("align", "body_threshold", "nan"),
        ("fixpoint", "tau_dis", "nan"),
        ("fixpoint", "tau_dis", "inf"),
    ])
    def test_bad_value_is_a_data_error(self, inputs, tmp_path, capsys, section, key, value):
        # with valid values these settings register the pair with exit 0
        sections = {
            "align": {"grid_spacing": "3", "similarity_floor": "0.3", "body_threshold": "0.18",
                      "matcher": "fixpoint"},
            "fixpoint": {},
        }
        sections[section][key] = value
        conf = tmp_path / "run.conf"
        conf.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for name, items in sections.items()
        ))
        code = cli.main([
            "--config", str(conf), "adareg", str(inputs / "fixed.evf"), str(inputs / "moving.evf"),
            str(inputs / "model.uaem"), str(tmp_path / "out"),
        ])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert f"[{section}]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_threshold_below_every_voxel_is_a_data_error(self, inputs, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("[align]\ngrid_spacing = 3\nsimilarity_floor = 0.3\nbody_threshold = -1\n")
        code = cli.main([
            "--config", str(conf), "adareg", str(inputs / "fixed.evf"), str(inputs / "moving.evf"),
            str(inputs / "model.uaem"), str(tmp_path / "out"),
        ])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "every voxel exceeds threshold -1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestAdaregInputs:
    @pytest.mark.parametrize("which", ["fixed", "moving"])
    def test_embedding_volume_as_input_is_a_data_error(self, tmp_path, capsys, which):
        vol = resample(gen_phantom(PhantomSpec(dims=(40, 40, 40), seed=61))[0], 2.0)
        paths = {"fixed": tmp_path / "fixed.evf", "moving": tmp_path / "moving.evf"}
        write_volume(vol, paths["fixed"])
        write_volume(vol, paths["moving"])
        write_embedding_evf(paths[which])
        save_model(new_model(np.random.default_rng(3)), tmp_path / "model.uaem")
        code = cli.main([
            "adareg", str(paths["fixed"]), str(paths["moving"]),
            str(tmp_path / "model.uaem"), str(tmp_path / "out"),
        ])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert f"{which}.evf: expected ScalarVolume, found EmbeddingVolume" in err
        assert "Traceback" not in err


    def test_negative_margin_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["adareg", "fixed.evf", "moving.evf", "model.uaem", str(tmp_path / "out"), "--margin", "-3"])
        assert exc.value.code == cli.USAGE_ERROR
        assert "--margin must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTrainCommand:
    CONF = (
        "[train]\nsteps = 1\nn_pos_fine = 16\nn_neg_fine = 16\nn_pos_coarse = 8\n"
        "n_neg_coarse = 8\nneg_min_dist_fine = 4\nneg_min_dist_coarse = 8\nsemantic_per_class = 8\n"
        "[augment]\npatch_size = 20,20,20\n"
    )

    def run(self, tmp_path, manifest, *extra):
        vol = resample(gen_phantom(PhantomSpec(dims=(48, 48, 48), seed=63))[0], 2.0)
        write_volume(vol, tmp_path / "vol.evf")
        write_volume(LabelVolume(vol.geometry, (vol.data > 0.3).astype(np.uint16)), tmp_path / "labels.evf")
        # the same voxels at the phantom's own 1 mm, half the working grid's extent
        one_mm = VolumeGeometry(vol.geometry.dims, (1.0, 1.0, 1.0), vol.geometry.origin)
        write_volume(LabelVolume(one_mm, (vol.data > 0.3).astype(np.uint16)), tmp_path / "labels_1mm.evf")
        write_embedding_evf(tmp_path / "emb.evf")
        (tmp_path / "manifest.txt").write_text(manifest + "\n")
        (tmp_path / "run.conf").write_text(self.CONF)
        return cli.main([
            "--config", str(tmp_path / "run.conf"), "train",
            str(tmp_path / "manifest.txt"), str(tmp_path / "model.uaem"), *extra,
        ])

    def test_volume_with_labels_trains(self, tmp_path, capsys):
        assert self.run(tmp_path, "vol.evf labels.evf") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "step,loss_fine,loss_coarse,loss_semantic"
        assert len(out) == 2 and out[1].startswith("0,")
        assert (tmp_path / "model.uaem").exists()

    @pytest.mark.parametrize("manifest,mode,message", [
        ("emb.evf", "single", "emb.evf: expected ScalarVolume, found EmbeddingVolume"),
        ("vol.evf emb.evf", "single", "emb.evf: expected LabelVolume, found EmbeddingVolume"),
        ("vol.evf vol.evf", "single", "vol.evf: expected LabelVolume, found ScalarVolume"),
        ("vol.evf\nvol.evf labels_1mm.evf", "single", "dataset entry 1: labels on"),
        ("emb.evf vol.evf", "cross-iter", "emb.evf: expected ScalarVolume, found EmbeddingVolume"),
        ("vol.evf emb.evf", "cross-iter", "emb.evf: expected ScalarVolume, found EmbeddingVolume"),
        ("v\xe9.evf", "single", "manifest.txt:1: not ASCII text"),
        ("vol.evf\nv\xe9.evf vol.evf", "cross-iter", "manifest.txt:2: not ASCII text"),
        # a line with a path too many or too few is not cut to fit
        ("vol.evf labels.evf vol.evf", "single", "manifest.txt:1: a single line holds 1 or 2 paths, got 3"),
        ("vol.evf\nvol.evf labels.evf vol.evf", "cross-init",
         "manifest.txt:2: a cross-init line holds 1 or 2 paths, got 3"),
        ("vol.evf", "cross-iter", "manifest.txt:1: a cross-iter line holds 2 or 4 paths, got 1"),
        ("vol.evf vol.evf lms.txt", "cross-iter", "manifest.txt:1: a cross-iter line holds 2 or 4 paths, got 3"),
        ("vol.evf vol.evf lms.txt lms.txt lms.txt", "cross-iter",
         "manifest.txt:1: a cross-iter line holds 2 or 4 paths, got 5"),
    ])
    def test_wrong_volume_kind_is_a_data_error(self, tmp_path, capsys, manifest, mode, message):
        assert self.run(tmp_path, manifest, "--mode", mode) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.uaem").exists()

    @pytest.mark.parametrize("mode,manifest", [("single", "missing.evf")])
    def test_data_error_leaves_an_existing_loss_log_as_it_was(self, tmp_path, capsys, mode, manifest):
        (tmp_path / "loss.csv").write_bytes(b"old log\n")
        code = self.run(tmp_path, manifest, "--mode", mode, "--loss-log", str(tmp_path / "loss.csv"))
        assert code == cli.DATA_ERROR
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "loss.csv").read_bytes() == b"old log\n"

    def test_training_in_which_no_batch_ran_is_a_data_error(self, tmp_path, capsys):
        # no patch pair of the 24^3 working phantom holds 100000 positives, so
        # every batch is skipped: no model, and an old loss log stays as it was
        self.CONF = self.CONF.replace("n_pos_fine = 16", "n_pos_fine = 100000")
        (tmp_path / "loss.csv").write_bytes(b"old log\n")
        code = self.run(tmp_path, "vol.evf", "--loss-log", str(tmp_path / "loss.csv"))
        out, err = capsys.readouterr()
        assert code == cli.DATA_ERROR
        assert "no training batch of the 1 steps had enough overlap" in err
        assert "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "model.uaem").exists()
        assert (tmp_path / "loss.csv").read_bytes() == b"old log\n"

    def test_loss_log_with_cross_iter_is_a_usage_error(self, tmp_path, capsys):
        # cross-iter keeps no loss log of its rounds, so it takes no --loss-log
        (tmp_path / "loss.csv").write_bytes(b"old log\n")
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, "vol.evf vol.evf", "--mode", "cross-iter", "--loss-log", str(tmp_path / "loss.csv"))
        assert exc.value.code == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "--loss-log cannot be used with --mode cross-iter" in err
        assert "Traceback" not in err
        assert (tmp_path / "loss.csv").read_bytes() == b"old log\n"
        assert not (tmp_path / "model.uaem").exists()

    @pytest.mark.parametrize("key,value", [("n_neg_fine", "0"), ("batch_size", "0"), ("n_neg_coarse", "-5")])
    def test_counts_the_sampler_cannot_honour_are_a_data_error(self, tmp_path, capsys, key, value):
        lines = [ln for ln in self.CONF.splitlines() if not ln.startswith(f"{key} =")]
        lines.insert(lines.index("[train]") + 1, f"{key} = {value}")
        self.CONF = "\n".join(lines) + "\n"
        assert self.run(tmp_path, "vol.evf") == cli.DATA_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "[train]" in err and "must be >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.uaem").exists()

    @pytest.mark.parametrize("mode,aggressive", [("single", False), ("cross-init", True), ("cross-iter", True)])
    def test_the_mode_decides_the_augmentation(self, tmp_path, monkeypatch, mode, aggressive):
        vol = resample(gen_phantom(PhantomSpec(dims=(48, 48, 48), seed=64))[0], 2.0)
        write_volume(vol, tmp_path / "fixed.evf")
        write_volume(crop(vol, Box3((1, 1, 1), (22, 22, 22))), tmp_path / "moving.evf")
        (tmp_path / "manifest.txt").write_text("fixed.evf moving.evf\n" if mode == "cross-iter" else "fixed.evf\n")
        (tmp_path / "run.conf").write_text(
            self.CONF + "[align]\ngrid_spacing = 3\nsimilarity_floor = 0.3\nbody_threshold = 0.18\nmargins = 4\n"
        )
        drawn = []
        real = model_mod.sample_patch_pair

        def spy(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            drawn.append(bound.arguments.get("aggressive", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(model_mod, "sample_patch_pair", spy)
        code = cli.main([
            "--config", str(tmp_path / "run.conf"), "train", str(tmp_path / "manifest.txt"),
            str(tmp_path / "model.uaem"), "--mode", mode,
        ])
        assert code == 0
        assert drawn and drawn == [aggressive] * len(drawn)

    @pytest.mark.parametrize("threshold,skipped", [
        ("0.18", "no voxel exceeds threshold 0.18"), ("-1", "every voxel exceeds threshold -1"),
    ], ids=["no-body", "no-background"])
    def test_cross_iter_round_with_no_registered_pair_is_a_data_error(
        self, tmp_path, capsys, caplog, threshold, skipped
    ):
        vol = resample(gen_phantom(PhantomSpec(dims=(48, 48, 48), seed=64))[0], 2.0)
        moving = vol if threshold == "-1" else ScalarVolume(vol.geometry, np.zeros_like(vol.data))
        write_volume(vol, tmp_path / "fixed.evf")
        write_volume(moving, tmp_path / "moving.evf")
        (tmp_path / "manifest.txt").write_text("fixed.evf moving.evf\n")
        (tmp_path / "run.conf").write_text(
            self.CONF + "[align]\ngrid_spacing = 3\nsimilarity_floor = 0.3\n"
            f"body_threshold = {threshold}\nmargins = 4\n"
        )
        code = cli.main([
            "--config", str(tmp_path / "run.conf"), "train", str(tmp_path / "manifest.txt"),
            str(tmp_path / "model.uaem"), "--mode", "cross-iter",
        ])
        assert code == cli.DATA_ERROR
        assert skipped in caplog.text
        err = capsys.readouterr().err
        assert "round 0" in err and "no pair registered" in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.uaem").exists()

    def test_unknown_mode_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, "vol.evf", "--mode", "banana")
        assert exc.value.code == cli.USAGE_ERROR
        assert "invalid choice" in capsys.readouterr().err


def rewrite_evf(path, at, value):
    """Overwrite one f32 of an EVF file and re-stamp the payload CRC (which skips the header)."""
    raw = bytearray(path.read_bytes())
    raw[at:at + 4] = struct.pack("<f", value)
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[56:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))


class TestBadVolumeData:
    """A CRC-valid EVF whose values are out of range is a data error."""

    @staticmethod
    def embed(tmp_path, at, value):
        write_volume(ScalarVolume(VolumeGeometry((8, 8, 8)), np.zeros((8, 8, 8))), tmp_path / "vol.evf")
        rewrite_evf(tmp_path / "vol.evf", at, value)
        save_model(new_model(np.random.default_rng(7)), tmp_path / "model.uaem")
        return cli.main(["embed", str(tmp_path / "vol.evf"), str(tmp_path / "model.uaem"), str(tmp_path / "out")])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scalar_payload_is_a_data_error(self, tmp_path, capsys, value):
        assert self.embed(tmp_path, 56, value) == cli.DATA_ERROR  # first voxel of the payload
        err = capsys.readouterr().err
        assert "scalar payload holds non-finite values" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_header_spacing_is_a_data_error(self, tmp_path, capsys, value):
        assert self.embed(tmp_path, 28, value) == cli.DATA_ERROR  # the header's y spacing
        err = capsys.readouterr().err
        assert "voxel spacing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_header_origin_is_a_data_error(self, tmp_path, capsys, value):
        assert self.embed(tmp_path, 36, value) == cli.DATA_ERROR  # the header's x origin
        err = capsys.readouterr().err
        assert "volume origin" in err
        assert "Traceback" not in err


class TestPhantomGenCommand:
    @staticmethod
    def run(tmp_path, conf, *args):
        (tmp_path / "run.conf").write_text(conf)
        return cli.main(["--config", str(tmp_path / "run.conf"), "--seed", "5", "phantom-gen", *args])

    def test_writes_each_case(self, tmp_path, capsys):
        conf = "[phantom]\ndims = 32,32,32\nn_organs = 2\n"
        assert self.run(tmp_path, conf, str(tmp_path / "out"), "--count", "2") == 0
        assert "wrote 2 cases" in capsys.readouterr().out
        for i in range(2):
            case = tmp_path / "out" / f"case_{i:03d}"
            vol, labels = read_volume(case / "volume.evf"), read_volume(case / "labels.evf")
            assert isinstance(vol, ScalarVolume) and isinstance(labels, LabelVolume)
            assert vol.geometry.dims == (32, 32, 32)
            assert f"seed={5 + i}\n" in (case / "manifest.txt").read_text()
            assert len((case / "landmarks.txt").read_text().splitlines()) > 0

    @pytest.mark.parametrize("conf,n_organs", [
        ("[phantom]\ndims = 32 32 32\n", 6),
        ("[phantom]\ndims = 24 24 24\nn_organs = 2\n", 2),
        ("[phantom]\ndims = 24 24 24\n", 6),
    ])
    def test_small_phantoms_build(self, tmp_path, capsys, conf, n_organs):
        assert self.run(tmp_path, conf, str(tmp_path / "out"), "--count", "3") == 0
        for i in range(3):
            labels = read_volume(tmp_path / "out" / f"case_{i:03d}" / "labels.evf")
            assert set(np.unique(labels.data)) == set(range(n_organs + 1))

    @pytest.mark.parametrize("line", ["dims = 32,x,32", "n_organs = -1"])
    def test_malformed_phantom_config_is_a_data_error(self, tmp_path, capsys, line):
        assert self.run(tmp_path, f"[phantom]\n{line}\n", str(tmp_path / "out")) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "[phantom]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("augment", "scale_range", "0.8"),
        ("augment", "patch_size", "none"),
        ("phantom", "dims", "64"),
        ("phantom", "dims", "32 32 32 32"),
        ("phantom", "dims", "0 0 0"),
        ("phantom", "organ_axis_range", "3"),
        ("phantom", "spacing", "0"),
        ("phantom", "organ_axis_range", "3 inf"),
        ("phantom", "texture_scale", "-3"),
        ("phantom", "texture_scale", "0"),
        ("phantom", "texture_scale", "inf"),
        ("phantom", "texture_amplitude", "nan"),
        ("phantom", "air_intensity", "nan"),
        ("phantom", "body_intensity", "inf"),
        ("phantom", "organ_intensity_range", "0.4,nan"),
        ("align", "margins", ""),
        ("align", "margins", "-1"),
        ("run", "seed", "-5"),
        ("phantom", "seed", "-1"),
        ("train", "seed", "-3"),
        # values that passed validation and then failed or were ignored in training
        ("augment", "rotation_degrees", "nan"),
        ("augment", "rotation_degrees", "inf"),
        ("augment", "scale_range", "1 inf"),
        ("augment", "scale_range", "nan nan"),
        ("augment", "blur_sigma_range", "nan nan"),
        ("augment", "blur_sigma_range", "-1 0.5"),
        ("augment", "blur_sigma_range", "1 0.5"),
        ("augment", "noise_sigma_range", "-0.02 0"),
        ("augment", "noise_sigma_range", "0 inf"),
        ("augment", "patch_size", "0 0 0"),
        ("train", "learning_rate", "nan"),
        ("train", "learning_rate", "-0.1"),
        ("train", "momentum", "inf"),
        ("train", "momentum", "1"),
        ("train", "tau_appearance", "nan"),
        ("train", "tau_semantic", "inf"),
        ("train", "tau_cross", "-inf"),
        ("train", "tau_cross", "0"),
        ("train", "neg_min_dist_fine", "inf"),
        ("train", "neg_min_dist_coarse", "inf"),
        ("similarity", "w_coarse", "nan"),
        ("similarity", "w_fine", "inf"),
        ("similarity", "w_semantic", "-0.5"),
    ])
    def test_malformed_tuple_or_phantom_value_is_a_data_error(self, tmp_path, capsys, section, key, value):
        code = self.run(tmp_path, f"[{section}]\n{key} = {value}\n", str(tmp_path / "out"))
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert f"[{section}]" in err and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_integer_count_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, "", str(tmp_path / "out"), "--count", "two")
        assert exc.value.code == cli.USAGE_ERROR
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_a_usage_error(self, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, "", str(tmp_path / "out"), "--count", count)
        assert exc.value.code == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert "--count must be >= 1" in err
        assert "wrote" not in out
        assert not (tmp_path / "out").exists()


class TestSimmapCommand:
    def test_self_map_peaks_at_the_point(self, tmp_path, capsys):
        emb = tmp_path / "emb"
        TestMatchCommand.write_embeddings(emb)
        assert cli.main(["simmap", str(emb), "4,6,2", str(emb), str(tmp_path / "map.evf")]) == 0
        assert "wrote similarity map" in capsys.readouterr().out
        smap = read_volume(tmp_path / "map.evf")
        assert isinstance(smap, ScalarVolume) and smap.geometry.dims == (6, 6, 6)
        assert smap.data.argmax() == np.ravel_multi_index((1, 3, 2), smap.data.shape)
        assert abs(float(smap.data.max()) - 1.0) < 1e-6

    def test_truncated_embedding_file_is_a_data_error(self, tmp_path, capsys):
        emb = tmp_path / "emb"
        TestMatchCommand.write_embeddings(emb)
        (emb / "fine.evf").write_bytes((emb / "fine.evf").read_bytes()[:100])
        assert cli.main(["simmap", str(emb), "4,6,2", str(emb), str(tmp_path / "map.evf")]) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "short read while loading payload" in err
        assert "Traceback" not in err
        assert not (tmp_path / "map.evf").exists()

    def test_missing_output_argument_is_a_usage_error(self, tmp_path, capsys):
        emb = tmp_path / "emb"
        TestMatchCommand.write_embeddings(emb)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simmap", str(emb), "4,6,2", str(emb)])
        assert exc.value.code == cli.USAGE_ERROR
        assert "out_volume" in capsys.readouterr().err


class TestFitRigidCommand:
    SRC = [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (0.0, 8.0, 0.0), (0.0, 0.0, 6.0), (3.0, 4.0, 5.0)]

    def write(self, tmp_path, shift):
        write_landmarks(tmp_path / "src.txt", [(f"lm{i}", Point3(*p)) for i, p in enumerate(self.SRC)])
        moved = [Point3(*(np.asarray(p) + shift)) for p in self.SRC]
        write_landmarks(tmp_path / "dst.txt", [(f"lm{i}", p) for i, p in enumerate(moved)])

    def test_recovers_a_translation(self, tmp_path, capsys):
        self.write(tmp_path, (1.0, -2.0, 3.5))
        assert cli.main(["fit-rigid", str(tmp_path / "src.txt"), str(tmp_path / "dst.txt")]) == 0
        rows = np.array([line.split() for line in capsys.readouterr().out.splitlines()[:4]], dtype=float)
        np.testing.assert_allclose(rows[:3], np.eye(3), atol=1e-9)
        np.testing.assert_allclose(rows[3], [1.0, -2.0, 3.5], atol=1e-9)

    def test_prints_the_residual_of_a_noisy_pair(self, tmp_path, capsys):
        self.write(tmp_path, (1.0, -2.0, 3.5))
        noise = np.random.default_rng(3).normal(0.0, 0.3, (len(self.SRC), 3))
        moved = np.asarray(self.SRC) + (1.0, -2.0, 3.5) + noise
        write_landmarks(tmp_path / "dst.txt", [(f"lm{i}", Point3(*p)) for i, p in enumerate(moved)])
        assert cli.main(["fit-rigid", str(tmp_path / "src.txt"), str(tmp_path / "dst.txt")]) == 0
        assert capsys.readouterr().out.splitlines()[4] == "1.26089354"

    @pytest.mark.parametrize("line", [b"lm0 1 two 3", b"b 4 5 6 \xe9", b"lm0 1 2 3\nlm0 4 5 6"])
    def test_malformed_landmark_line_is_a_data_error(self, tmp_path, capsys, line):
        self.write(tmp_path, (0.0, 0.0, 0.0))
        (tmp_path / "dst.txt").write_bytes(line + b"\n")
        assert cli.main(["fit-rigid", str(tmp_path / "src.txt"), str(tmp_path / "dst.txt")]) == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "dst.txt:1" in err
        assert "Traceback" not in err

    def test_missing_landmark_file_argument_is_a_usage_error(self, tmp_path, capsys):
        self.write(tmp_path, (0.0, 0.0, 0.0))
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit-rigid", str(tmp_path / "src.txt")])
        assert exc.value.code == cli.USAGE_ERROR
        assert "dst_landmarks" in capsys.readouterr().err
