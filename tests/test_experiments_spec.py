"""SweepSpec expansion, job identity, and seed derivation."""

from __future__ import annotations

import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.experiments.spec import (
    JobSpec,
    SweepSpec,
    derive_seed,
    parse_mesh_axis,
)
from repro.ordering.strategies import OrderingMethod


def small_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        name="t",
        model="lenet",
        base={"max_tasks_per_layer": 2, "n_mcs": 1},
        axes={
            "mesh": ["2x2:1", "3x3:1"],
            "ordering": ["O0", "O1", "O2"],
        },
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a", {"x": 1}) == derive_seed(0, "a", {"x": 1})

    def test_sensitive_to_every_part(self):
        base = derive_seed(0, "a")
        assert derive_seed(1, "a") != base
        assert derive_seed(0, "b") != base

    def test_32bit_range(self):
        seed = derive_seed("anything", 123)
        assert 0 <= seed < 2**32


class TestParseMeshAxis:
    def test_full_form(self):
        assert parse_mesh_axis("8x8:4") == {
            "width": 8, "height": 8, "n_mcs": 4,
        }

    def test_default_mcs(self):
        assert parse_mesh_axis("4x4")["n_mcs"] == 2

    def test_bad_string(self):
        with pytest.raises(ValueError, match="bad mesh"):
            parse_mesh_axis("four-by-four")


class TestExpansion:
    def test_grid_size_and_order(self):
        jobs = small_spec().expand()
        assert len(jobs) == 6
        # Last axis (ordering) varies fastest.
        assert [j.config.ordering.value for j in jobs[:3]] == [
            "O0", "O1", "O2",
        ]
        assert jobs[0].config.width == 2
        assert jobs[3].config.width == 3

    def test_n_points_matches_expansion(self):
        spec = small_spec()
        assert spec.n_points == len(spec.expand())

    def test_expansion_is_reproducible(self):
        a = small_spec().expand()
        b = small_spec().expand()
        assert [j.job_id for j in a] == [j.job_id for j in b]

    def test_enum_axis_matches_string_axis(self):
        strings = small_spec(axes={"ordering": ["O1"]}).expand()
        enums = small_spec(
            axes={"ordering": [OrderingMethod.AFFILIATED]}
        ).expand()
        assert [j.job_id for j in strings] == [j.job_id for j in enums]

    def test_mesh_dict_values(self):
        spec = small_spec(
            axes={"mesh": [{"width": 3, "height": 2, "n_mcs": 1}]}
        )
        (job,) = spec.expand()
        assert (job.config.width, job.config.height) == (3, 2)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            small_spec(axes={"ordering": []})

    def test_round_trip(self):
        spec = small_spec()
        rebuilt = SweepSpec.from_dict(spec.to_dict())
        assert [j.job_id for j in rebuilt.expand()] == [
            j.job_id for j in spec.expand()
        ]


class TestJobSeeds:
    def test_per_job_seeds_differ_across_points(self):
        # Two meshes are two workloads; the orderings are treatments.
        seeds = {j.config.seed for j in small_spec().expand()}
        assert len(seeds) == 2

    def test_codings_share_one_seed(self):
        """O0/O1/O2 x format x fill order sample the same tasks, so a
        reduction against O0 is a paired comparison."""
        jobs = small_spec(
            axes={
                "mesh": ["2x2:1"],
                "ordering": ["O0", "O1", "O2"],
                "data_format": ["fixed8", "float32"],
                "fill_order": ["deal", "row"],
                "codec": ["batch", "scalar"],
            }
        ).expand()
        assert len(jobs) == 24
        assert len({j.config.seed for j in jobs}) == 1
        assert len({j.job_id for j in jobs}) == 24

    def test_campaign_seed_changes_job_seeds(self):
        a = small_spec(seed=0).expand()
        b = small_spec(seed=1).expand()
        assert all(
            x.config.seed != y.config.seed for x, y in zip(a, b)
        )

    def test_explicit_base_seed_is_pinned(self):
        jobs = small_spec(
            base={"max_tasks_per_layer": 2, "n_mcs": 1, "seed": 2025}
        ).expand()
        assert {j.config.seed for j in jobs} == {2025}

    def test_seed_stable_when_grid_grows(self):
        narrow = small_spec(axes={"ordering": ["O0"]}).expand()
        wide = small_spec(axes={"ordering": ["O0", "O2"]}).expand()
        assert narrow[0].config.seed == wide[0].config.seed


class TestJobSpec:
    def test_job_id_tracks_identity(self):
        config = AcceleratorConfig(max_tasks_per_layer=2)
        a = JobSpec(model="lenet", config=config)
        b = JobSpec(model="lenet", config=config)
        assert a.job_id == b.job_id
        c = JobSpec(model="lenet", config=config, image_seed=6)
        assert c.job_id != a.job_id

    def test_round_trip(self):
        job = JobSpec(
            model="darknet",
            config=AcceleratorConfig(data_format="float32"),
            model_seed=21,
        )
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            JobSpec(model="resnet", config=AcceleratorConfig())
