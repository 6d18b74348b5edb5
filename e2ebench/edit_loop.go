package main

// edit_loop: the xgcc -cache developer loop. Set-up fills a persistent
// directory cache with one cold run; each op applies the next seeded
// edit and runs a fresh mc.Analyzer over that cache. Every edited tree
// is gated against a cold plain run of the same tree.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/workload"
	"repro/mc"
)

type editLoop struct {
	cfg    *runConfig
	base   map[string]string
	stream *editStream
	dir    string
	store  *tracedStore // non-nil on a traced run

	tree   map[string]string // the last op's tree
	digest string
}

func setupEditLoop(cfg *runConfig, k int) (instance, error) {
	files, funcs := cfg.size(8)
	base, _ := workload.MixedTree(files, funcs, cfg.Seed)
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("edit_loop-cache-%d", k))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	w := &editLoop{cfg: cfg, base: base, stream: newEditStream(base, cfg.Seed), dir: dir}
	if cfg.Trace {
		ds, err := cache.NewDirStore(dir)
		if err != nil {
			return nil, err
		}
		w.store = &tracedStore{inner: ds}
	}
	// Fill the cache with one cold run, then warm up with one warm
	// re-run of the unedited tree.
	for pass := 0; pass < 2; pass++ {
		if s := w.analyze(base, 0, nil, nil); s.fault != "" {
			return nil, fmt.Errorf("set-up run: %s", s.fault)
		}
	}
	return w, nil
}

func (w *editLoop) inputs() string { return inputsHash(w.base) }

func (w *editLoop) prepare() error { return nil }

func (w *editLoop) op(i, opID int64, tr *tracer, row map[string]float64) opSample {
	tree, edit := w.stream.next()
	w.tree = tree
	s := w.analyze(tree, opID, tr, row)
	s.edit = edit.Name
	return s
}

// analyze runs a fresh analyzer over the cache directory.
func (w *editLoop) analyze(tree map[string]string, opID int64, tr *tracer, row map[string]float64) opSample {
	s := opSample{lines: treeLines(tree)}
	rc := mc.RunConfig{Jobs: jobs, CacheDir: w.dir}
	if w.store != nil {
		rc = mc.RunConfig{Jobs: jobs, CacheStore: w.store}
		w.store.on.Store(row != nil)
	}
	root := tr.begin(opID, 0, "op")
	a := mc.NewAnalyzer()
	if err := a.Configure(rc); err != nil {
		s.fault = err.Error()
		return s
	}
	for name, src := range tree {
		a.AddSource(name, src)
	}
	sp := tr.begin(opID, root.id(), "metal.compile")
	err := loadCheckers(a)
	compileMs := sp.end()
	if err != nil {
		s.fault = err.Error()
		return s
	}
	sp = tr.begin(opID, root.id(), "mc.run")
	res, err := a.RunContext(context.Background())
	sp.end()
	if err != nil {
		s.fault = err.Error()
		return s
	}
	sp = tr.begin(opID, root.id(), "rank")
	ranked := res.Ranked()
	rankMs := sp.end()
	s.ms = root.end()
	s.verdictMs = s.ms
	s.fault = opFault(res)
	w.digest = digestReports(ranked)
	s.readMs = s.ms + render(ranked)
	if row != nil {
		row["metal.compile_ms"] = compileMs
		row["rank.ms"] = rankMs
		incrRow(row, res.Incr)
		row["cc.files"] = float64(len(tree))
		row["prog.funcs"] = float64(len(res.Program.All))
		w.store.on.Store(false)
		w.store.take().addTo(row)
	}
	return s
}

// incrRow copies the cached path's own phase times and unit counters
// into a per-layer row.
func incrRow(row map[string]float64, in *mc.IncrStats) {
	if in == nil {
		return
	}
	row["mc.parse_ms"] = float64(in.ParseNanos) / 1e6
	row["mc.build_ms"] = float64(in.BuildNanos) / 1e6
	row["mc.analyze_ms"] = float64(in.AnalyzeNanos) / 1e6
	row["mc.merge_ms"] = float64(in.MergeNanos) / 1e6
	row["mc.units_live"] = float64(in.UnitsLive)
	row["mc.units_replayed"] = float64(in.UnitsReplayed)
	if n := in.UnitsLive + in.UnitsReplayed; n > 0 {
		row["mc.unit_reuse_ratio"] = float64(in.UnitsReplayed) / float64(n)
	}
	row["mc.funcs_live"] = float64(in.FuncsAnalyzedLive)
	row["fleet.units_remote"] = float64(in.UnitsRemote)
}

func (w *editLoop) check(row map[string]float64) error {
	ref, wall, err := reference(w.tree, false)
	if err != nil {
		return err
	}
	if row != nil {
		row["mc.cold_ref_ms"] = ms(wall)
	}
	if !w.cfg.matches(w.digest, ref) {
		return fmt.Errorf("warm digest %.12s, cold reference %.12s", w.digest, ref)
	}
	return nil
}

func (w *editLoop) finish(map[string]float64) error { return nil }

func (w *editLoop) close() { os.RemoveAll(w.dir) }
