"""Tests for the command-line surface: exit codes and the adareg weights."""

import numpy as np
import pytest

from voxelmatch import alignment, cli
from voxelmatch.geometry import Point3
from voxelmatch.metrics import write_landmarks
from voxelmatch.model import DescriptorBank, ProjectionModel, head_frame, new_model, save_model
from voxelmatch.phantom import PhantomSpec, gen_phantom
from voxelmatch.volume import (
    Box3,
    EmbeddingVolume,
    VolumeGeometry,
    crop,
    l2_normalize,
    read_volume,
    resample,
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

    @pytest.mark.parametrize("line", ["lm0 1 2", "lm0 1 2 3 4", "lm0 1 two 3"])
    def test_malformed_landmark_line_is_a_data_error(self, tmp_path, capsys, line):
        write_lms(tmp_path / "true.txt")
        (tmp_path / "pred.txt").write_text(f"{line}\n")
        code = cli.main(["eval", str(tmp_path / "pred.txt"), str(tmp_path / "true.txt")])
        assert code == cli.DATA_ERROR
        err = capsys.readouterr().err
        assert "pred.txt:1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["lm0", "lm0 wide"])
    def test_malformed_radii_line_is_a_data_error(self, tmp_path, capsys, line):
        write_lms(tmp_path / "pred.txt")
        write_lms(tmp_path / "true.txt")
        (tmp_path / "radii.txt").write_text(f"{line}\n")
        code = cli.main([
            "eval", str(tmp_path / "pred.txt"), str(tmp_path / "true.txt"),
            "--radii", str(tmp_path / "radii.txt"),
        ])
        assert code == cli.DATA_ERROR
        assert "radii.txt:1" in capsys.readouterr().err


class TestRunConfigExitCodes:
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

    @pytest.mark.parametrize(
        "section,line", [("train", "feature_dim = 16"), ("augment", "seed = 3")]
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


class TestMatchCommand:
    @staticmethod
    def write_embeddings(path):
        rng = np.random.default_rng(0)
        path.mkdir()
        for head in ("coarse", "fine"):
            vol = l2_normalize(EmbeddingVolume(VolumeGeometry((6, 6, 6)), rng.normal(size=(6, 6, 6, 4))))
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


class TestEmbedCommand:
    @staticmethod
    def run(tmp_path, mdl):
        vol = resample(gen_phantom(PhantomSpec(dims=(40, 40, 40), seed=8))[0], 2.0)
        write_volume(vol, tmp_path / "vol.evf")
        save_model(mdl, tmp_path / "model.uaem")
        code = cli.main(["embed", str(tmp_path / "vol.evf"), str(tmp_path / "model.uaem"), str(tmp_path / "out")])
        return code, vol

    def test_writes_each_head_as_normalized_full_width_embeddings(self, tmp_path, capsys):
        mdl = new_model(np.random.default_rng(3), with_semantic=True)
        mdl.w_coarse = np.zeros_like(mdl.w_coarse)  # every coarse voxel is a zero vector
        code, vol = self.run(tmp_path, mdl)
        assert code == 0
        assert "wrote embeddings" in capsys.readouterr().out
        feats, _ = DescriptorBank().compute(vol)
        flat = feats.reshape(-1, feats.shape[-1])
        for head in ("coarse", "fine", "semantic"):
            out = read_volume(tmp_path / "out" / f"{head}.evf")
            assert out.normalized and out.channels == mdl.embedding_dim
            got = out.data.reshape(-1, mdl.embedding_dim)
            w = getattr(mdl, f"w_{head}")
            if head == "coarse":  # the zero-vector rule: the frame's e1, i.e. Q's first column
                np.testing.assert_allclose(got, np.broadcast_to(head_frame(w)[1][0], got.shape), atol=1e-6)
                continue
            v = flat @ w
            norms = np.linalg.norm(v, axis=1)
            keep = norms > 1e-12
            np.testing.assert_allclose(got[keep], v[keep] / norms[keep, None], rtol=0, atol=1e-5)

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
        seen = []
        real = alignment.register_and_crop

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(alignment, "register_and_crop", spy)
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
        assert kwargs["moving_set"].semantic is None
        assert kwargs["fixed_set"].semantic is None
        assert (tmp_path / "out" / "rigid.txt").exists()
        assert "aligned with" in capsys.readouterr().out
