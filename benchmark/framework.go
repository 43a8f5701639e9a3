package main

import (
	"fmt"

	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/entropy"
	"dita/internal/lda"
	"dita/internal/mobility"
	"dita/internal/rrr"
)

// frameworkSource is recorded in every artifact the benchmark seals.
func frameworkSource(sc scale) string {
	return fmt.Sprintf("benchmark %s seed=%d cutoff=%gh", sc.Dataset.Name, sc.Dataset.Seed, sc.Cutoff)
}

// trainStaged fits the framework one training stage at a time — LDA,
// mobility, entropy, RRR — timing each from outside its package, and
// reassembles it with core.Restore. It must produce the framework
// core.Train does: callers compare the sealed checksums.
func trainStaged(data *dataset.Data, sc scale, tr *tracer, m *metrics) (*core.Framework, error) {
	cfg := sc.Train
	docs, vocab := data.Documents(sc.Cutoff)
	histories := data.HistoriesBefore(sc.Cutoff)
	records := data.CheckInsBefore(sc.Cutoff)
	// Train hands its umbrella Parallelism to every stage whose own
	// setting is unset; the staged run must do the same to be timed alike.
	ldaCfg, mobCfg, rpoCfg := cfg.LDA, cfg.Mobility, cfg.RPO
	if ldaCfg.Parallelism == 0 {
		ldaCfg.Parallelism = cfg.Parallelism
	}
	if mobCfg.Parallelism == 0 {
		mobCfg.Parallelism = cfg.Parallelism
	}
	if rpoCfg.Parallelism == 0 {
		rpoCfg.Parallelism = cfg.Parallelism
	}

	const group = "train"
	t0 := clk()
	ldaModel, err := lda.Train(docs, vocab, ldaCfg)
	if err != nil {
		return nil, fmt.Errorf("train: lda: %w", err)
	}
	t1 := clk()
	theta := make([][]float64, data.Graph.N())
	for u := range docs {
		if len(docs[u]) > 0 {
			theta[u] = ldaModel.DocTopics(u)
		}
	}
	mob := mobility.Fit(histories, mobCfg)
	t2 := clk()
	ent := entropy.Compute(records)
	t3 := clk()
	prop := rrr.Build(data.Graph, rpoCfg)
	t4 := clk()
	fw, err := core.Restore(cfg, data.Graph, ldaModel, theta, mob, ent, prop)
	if err != nil {
		return nil, fmt.Errorf("train: restore: %w", err)
	}
	t5 := clk()

	root := tr.add(group, "core.train", 0, t0, t5)
	tr.add(group, "lda.train", root, t0, t1)
	tr.add(group, "mobility.fit", root, t1, t2)
	tr.add(group, "entropy.compute", root, t2, t3)
	tr.add(group, "rrr.build", root, t3, t4)
	tr.add(group, "core.restore", root, t4, t5)
	m.add("lda.train_ms", ms(t1-t0), "ms")
	m.add("mobility.fit_ms", ms(t2-t1), "ms")
	m.add("entropy.compute_ms", ms(t3-t2), "ms")
	m.add("rrr.build_ms", ms(t4-t3), "ms")
	m.add("rrr.sets", float64(prop.NumSets()), "count")
	return fw, nil
}

// trainFramework fits the framework the stream and serve workloads load:
// with core.Train when untraced, stage by stage when traced.
func trainFramework(data *dataset.Data, sc scale, tr *tracer, m *metrics) (*core.Framework, error) {
	if tr != nil {
		return trainStaged(data, sc, tr, m)
	}
	docs, vocab := data.Documents(sc.Cutoff)
	return core.Train(core.TrainingData{
		Graph:     data.Graph,
		Histories: data.HistoriesBefore(sc.Cutoff),
		Documents: docs,
		Vocab:     vocab,
		Records:   data.CheckInsBefore(sc.Cutoff),
	}, sc.Train)
}
