package main

// cold_batch: the paper's use, and the xgcc -verify CI path. Each op
// builds a fresh mc.Analyzer over one tree, runs every bundled checker
// at -j 2 with no cache, verifies the reports and ranks them. The
// traced op replays the same plain pipeline from the layers' public
// functions, with a span around each call.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/mc"
)

type coldBatch struct {
	cfg    *runConfig
	tree   map[string]string
	lines  int
	ref    string
	digest string
}

func setupColdBatch(cfg *runConfig, _ int) (instance, error) {
	files, funcs := cfg.size(32)
	tree, _ := workload.MixedTree(files, funcs, cfg.Seed)
	w := &coldBatch{cfg: cfg, tree: tree, lines: treeLines(tree)}
	// Warm-up: one op, so the measured ops find the process warm.
	if s := w.op(0, 0, nil, nil); s.fault != "" {
		return nil, fmt.Errorf("warm-up: %s", s.fault)
	}
	return w, nil
}

func (w *coldBatch) inputs() string { return inputsHash(w.tree) }

func (w *coldBatch) prepare() error {
	var err error
	w.ref, _, err = reference(w.tree, true)
	return err
}

func (w *coldBatch) op(i, opID int64, tr *tracer, row map[string]float64) opSample {
	s := opSample{lines: w.lines}
	if tr != nil {
		return w.replay(opID, tr, row)
	}
	root := tr.begin(opID, 0, "op")
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: jobs}); err != nil {
		s.fault = err.Error()
		return s
	}
	for name, src := range w.tree {
		a.AddSource(name, src)
	}
	if err := loadCheckers(a); err != nil {
		s.fault = err.Error()
		return s
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		s.fault = err.Error()
		return s
	}
	a.Verify(res, jobs)
	s.verdictMs = root.elapsed()
	ranked := res.Ranked()
	res.Grouped()
	s.ms = root.end()
	s.fault = opFault(res)
	w.publish(ranked, &s)
	return s
}

func (w *coldBatch) publish(ranked []*report.Report, s *opSample) {
	w.digest = digestReports(ranked)
	s.readMs = s.ms + render(ranked)
}

func (w *coldBatch) check(row map[string]float64) error {
	if !w.cfg.matches(w.digest, w.ref) {
		return fmt.Errorf("ranked digest %.12s, reference %.12s", w.digest, w.ref)
	}
	return nil
}

func (w *coldBatch) finish(map[string]float64) error { return nil }

func (w *coldBatch) close() {}

// replay is the traced op: the plain (uncached) mc pipeline rebuilt
// from the layers' public functions, in mc's order and at the same
// -j, so its ranked digest must equal the untraced op's.
func (w *coldBatch) replay(opID int64, tr *tracer, row map[string]float64) opSample {
	s := opSample{lines: w.lines}
	root := tr.begin(opID, 0, "op")
	span := func(name string) *openSpan { return tr.begin(opID, root.id(), name) }

	sp := span("metal.compile")
	var cks []*metal.Checker
	for _, name := range checkerNames() {
		c, err := checkers.Parse(name)
		if err != nil {
			s.fault = err.Error()
			return s
		}
		cks = append(cks, c)
	}
	row["metal.compile_ms"] = sp.end()

	sp = span("cc.parse")
	files, err := parseAll(w.tree)
	row["cc.parse_ms"] = sp.end()
	if err != nil {
		s.fault = err.Error()
		return s
	}

	sp = span("prog.build")
	p := prog.Build(files...)
	row["prog.build_ms"] = sp.end()

	opts := core.DefaultOptions()
	shared := core.NewShared()
	sp = span("core.dispatch_compile")
	cd := core.CompileDispatch(p, cks)
	row["core.dispatch_compile_ms"] = sp.end()

	sp = span("core.traverse")
	engines := make([]*core.Engine, len(cks))
	for i, c := range cks {
		engines[i] = core.NewEngineShared(p, c, opts, shared)
		engines[i].SetCompiled(cd, i)
	}
	for _, phase := range core.PlanPhases(cks) {
		runPhase(engines, phase)
	}
	row["core.traverse_ms"] = sp.end()

	sp = span("mc.merge")
	var reports []*report.Report
	ruleStats := map[string]rank.RuleStat{}
	var st core.Stats
	for _, en := range engines {
		reports = append(reports, en.Reports.Reports...)
		for rule, rc := range en.RuleStats {
			prev := ruleStats[rule]
			prev.Rule = rule
			prev.Examples += rc.Examples
			prev.Violations += rc.Violations
			ruleStats[rule] = prev
		}
		if en.Failure != nil {
			s.fault = fmt.Sprintf("checker failure: %v", en.Failure)
		} else if en.Degraded() {
			s.fault = "degraded run"
		}
		st.Blocks += en.Stats.Blocks
		st.Points += en.Stats.Points
		st.Paths += en.Stats.Paths
		st.PrunedPaths += en.Stats.PrunedPaths
		st.CacheHits += en.Stats.CacheHits
		st.CacheMisses += en.Stats.CacheMisses
		st.FuncCacheHits += en.Stats.FuncCacheHits
		st.InstanceOps += en.Stats.InstanceOps
	}
	row["mc.merge_ms"] = sp.end()

	sp = span("feas.verify")
	fst := feas.Annotate(reports, feas.Config{Workers: jobs})
	row["feas.verify_ms"] = sp.end()
	s.verdictMs = root.elapsed()

	sp = span("rank")
	ranked := rank.Generic(reports)
	rank.Grouped(reports, ruleStats)
	row["rank.ms"] = sp.end()
	s.ms = root.end()

	bytes := 0
	for _, src := range w.tree {
		bytes += len(src)
	}
	row["cc.files"] = float64(len(files))
	row["cc.parse_mb_per_s"] = float64(bytes) / 1e6 / (row["cc.parse_ms"] / 1000)
	row["prog.funcs"] = float64(len(p.All))
	for _, fn := range p.All {
		if fn.Graph != nil {
			row["prog.blocks"] += float64(len(fn.Graph.Blocks))
		}
	}
	row["prog.units"] = float64(len(p.Units()))
	row["core.blocks"] = float64(st.Blocks)
	row["core.points"] = float64(st.Points)
	row["core.paths"] = float64(st.Paths)
	row["core.pruned_paths"] = float64(st.PrunedPaths)
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		row["core.block_cache_hit_ratio"] = float64(st.CacheHits) / float64(n)
	}
	row["core.func_cache_hits"] = float64(st.FuncCacheHits)
	row["core.instance_ops"] = float64(st.InstanceOps)
	row["feas.verdicts"] = float64(fst.Done)
	if fst.Done > 0 {
		row["feas.unknown_ratio"] = float64(fst.Unknown) / float64(fst.Done)
	}
	w.publish(ranked, &s)
	return s
}

// parseAll is pass 1 as mc runs it: every file parsed by a pool of
// jobs workers into name-sorted slots.
func parseAll(tree map[string]string) ([]*cc.File, error) {
	names := sortedNames(tree)
	files := make([]*cc.File, len(names))
	errs := make([]error, len(names))
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < jobs && k < len(names); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				files[i], errs[i] = cc.ParseFile(names[i], tree[names[i]])
			}
		}()
	}
	for i := range names {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", names[i], err)
		}
	}
	return files, nil
}

// runPhase runs one phase's engines at most jobs at a time, in load
// order, as mc does.
func runPhase(engines []*core.Engine, phase []int) {
	ctx := context.Background()
	if len(phase) == 1 {
		engines[phase[0]].RunContext(ctx)
		return
	}
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for _, i := range phase {
		sem <- struct{}{}
		wg.Add(1)
		go func(en *core.Engine) {
			defer wg.Done()
			defer func() { <-sem }()
			en.RunContext(ctx)
		}(engines[i])
	}
	wg.Wait()
}
