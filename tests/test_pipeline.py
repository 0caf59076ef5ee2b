"""Tests for the experiment harness and the paper's protocol on the engine."""

import contextlib

import pytest

from repro.api import EngineStateError, TrainingError
from repro.baselines import MorphNormBaseline, SpotlightBaseline
from repro.core.config import JOCLConfig
from repro.core.variants import jocl_cano_config, jocl_link_config
from repro.metrics.linking import linking_accuracy
from repro.pipeline.experiment import (
    CanonicalizationRow,
    LinkingRow,
    format_table,
    run_canonicalization_systems,
    run_linking_systems,
    score_clustering,
)


@pytest.fixture(scope="module")
def fast_config():
    return JOCLConfig(lbp_iterations=10, learn_iterations=2)


def _run_jocl(dataset, config):
    """The paper's protocol (Section 4.1) on the engine: learn on the
    validation split, infer on the test split, score against the gold.

    Returns ``(np row, entity row, trained)``.  A single-task variant's
    graph may carry no mappable gold label; it then infers untrained,
    as in the Table 4 benchmark.
    """
    engine = dataset.engine("test", config=config)
    with contextlib.suppress(TrainingError):
        engine.fit(
            dataset.validation_triples,
            side=dataset.side_information(
                "validation", max_candidates=config.max_candidates
            ),
        )
    output = engine.run_joint().as_output()
    gold = dataset.gold
    return (
        score_clustering("JOCL", output.np_clusters, gold.np_clusters),
        LinkingRow("JOCL", linking_accuracy(output.entity_links, gold.entity_links)),
        engine.trained,
    )


@pytest.fixture(scope="module")
def full_run(small_dataset, fast_config):
    return _run_jocl(small_dataset, fast_config)


class TestEngineProtocol:
    def test_run_trains_and_scores_every_task(self, small_dataset, fast_config):
        """All four paper metrics come out of one trained engine run."""
        engine = small_dataset.engine("test", config=fast_config)
        engine.fit(
            small_dataset.validation_triples,
            side=small_dataset.side_information(
                "validation", max_candidates=fast_config.max_candidates
            ),
        )
        assert engine.trained
        output = engine.run_joint().as_output()
        gold = small_dataset.gold
        np_row = score_clustering("JOCL", output.np_clusters, gold.np_clusters)
        rp_row = score_clustering("JOCL", output.rp_clusters, gold.rp_clusters)
        assert 0.0 <= np_row.average_f1 <= 1.0
        assert 0.0 <= rp_row.average_f1 <= 1.0
        assert 0.0 <= linking_accuracy(output.entity_links, gold.entity_links) <= 1.0
        assert (
            0.0
            <= linking_accuracy(output.relation_links, gold.relation_links)
            <= 1.0
        )

    def test_run_without_training(self, small_dataset, fast_config):
        """An unfitted engine still decodes every mention of the split."""
        engine = small_dataset.engine("test", config=fast_config)
        output = engine.run_joint().as_output()
        assert not engine.trained
        subjects = {triple.subject for triple in small_dataset.test_triples}
        assert subjects <= set(output.entity_links)

    def test_empty_test_split_refuses_inference(self, small_dataset, fast_config):
        """An empty split fails loudly instead of decoding to nothing."""
        from repro.datasets.base import Dataset, EvaluationGold

        empty = Dataset(
            name="empty",
            world=small_dataset.world,
            triples=[],
            kb=small_dataset.kb,
            anchors=small_dataset.anchors,
            ppdb=small_dataset.ppdb,
            gold=EvaluationGold.from_triples([]),
        )
        engine = empty.engine("test", config=fast_config)
        with pytest.raises(EngineStateError, match="empty"):
            engine.run_joint()

    def test_trained_run_beats_trivial_floor(self, full_run):
        np_row, entity_row, trained = full_run
        assert trained
        assert np_row.average_f1 > 0.5
        assert entity_row.accuracy > 0.5

    def test_ablation_order(self, small_dataset, fast_config, full_run):
        """Table 4 shape: full JOCL >= each single-task variant."""
        np_row, entity_row, _trained = full_run
        cano_np, _, _ = _run_jocl(small_dataset, jocl_cano_config(fast_config))
        _, link_entity, _ = _run_jocl(small_dataset, jocl_link_config(fast_config))
        assert np_row.average_f1 >= cano_np.average_f1 - 1e-9
        assert entity_row.accuracy >= link_entity.accuracy - 0.02


class TestExperimentHarness:
    def test_run_canonicalization_systems(self, small_dataset, small_side):
        rows = run_canonicalization_systems(
            [MorphNormBaseline()], small_side, small_dataset.gold.np_clusters, "S"
        )
        assert len(rows) == 1
        assert rows[0].system == "Morph Norm"
        assert 0.0 <= rows[0].average_f1 <= 1.0

    def test_run_linking_systems_skips_non_relation_linkers(
        self, small_dataset, small_side
    ):
        rows = run_linking_systems(
            [SpotlightBaseline()],
            small_side,
            small_dataset.gold.relation_links,
            task="relation",
        )
        assert rows == []  # Spotlight links entities only

    def test_format_table(self):
        rows = [
            CanonicalizationRow("Morph Norm", 0.5, 0.6, 0.7, 0.6),
            CanonicalizationRow("JOCL", 0.9, 0.9, 0.9, 0.9),
        ]
        text = format_table("Table X", rows)
        assert "Table X" in text
        assert "*JOCL*" in text
        assert "0.900" in text

    def test_format_linking_table(self):
        text = format_table("T", [LinkingRow("Spotlight", 0.71)], highlight=None)
        assert "0.710" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table("T", [])

    def test_score_clustering_row(self, small_dataset, small_side):
        predicted = MorphNormBaseline().cluster(small_side, "S")
        row = score_clustering("m", predicted, small_dataset.gold.np_clusters)
        assert row.system == "m"
