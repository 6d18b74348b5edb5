package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/profiling"
	"repro/internal/workload"
	"repro/mc"
)

// expGov measures the governance tentpole's overhead: the same E11
// workload run through a plain background-context RunContext versus
// RunContext with a cancellable context plus generous (never-tripping)
// budgets — the configuration every governed caller pays for even when
// nothing is cut. The acceptance bound is <=5% overhead, and both paths must
// produce byte-identical ranked output (governance that never fires
// must be invisible). The series lands in BENCH_governance.json.

type govBench struct {
	Experiment      string              `json:"experiment"`
	Workload        string              `json:"workload"`
	Host            profiling.HostFacts `json:"host"`
	Trials          int                 `json:"trials"`
	BaselineSeconds float64             `json:"baseline_seconds"`
	GovernedSeconds float64             `json:"governed_seconds"`
	OverheadPct     float64             `json:"overhead_pct"`
	BoundPct        float64             `json:"bound_pct"`
	Identical       bool                `json:"identical_output"`
	// PeakRSSBytes is the process's high-water resident set when the
	// series finished (cumulative over every run in this process).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

// govAnalyze runs the full bundled suite once; governed selects the
// context-first path with active budgets.
func govAnalyze(srcs map[string]string, governed bool) (time.Duration, string) {
	a := mc.NewAnalyzer()
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, s := range mc.BundledCheckers() {
		if err := a.LoadBundledChecker(s.Name); err != nil {
			die(err)
		}
	}
	a.MarkFunction("net_wait", "blocking")

	var res *mc.Result
	var err error
	start := time.Now()
	if governed {
		// Budgets far above what the workload needs: the run pays the
		// bookkeeping (step counters, amortized deadline polls) but
		// never degrades.
		opts := mc.DefaultOptions()
		opts.Budgets = mc.Budgets{
			PathSteps:  1 << 40,
			FuncBlocks: 1 << 40,
			FuncTime:   time.Hour,
		}
		if cerr := a.Configure(mc.RunConfig{Options: &opts}); cerr != nil {
			die(cerr)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		res, err = a.RunContext(ctx)
	} else {
		res, err = a.RunContext(context.Background())
	}
	elapsed := time.Since(start)
	if err != nil {
		die(err)
	}
	if res.Degraded || len(res.Failures) > 0 {
		die(fmt.Errorf("governed run unexpectedly degraded or failed"))
	}
	var sb strings.Builder
	for _, r := range res.Ranked() {
		sb.WriteString(r.Detailed())
	}
	return elapsed, fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

func expGov() {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	const pairs = 40 // single-run ABBA pairs at ~100ms per run: ~8s of measurement
	const boundPct = 5.0

	// A virtualized single-CPU host drifts through fast/slow phases and
	// suffers occasional multi-hundred-ms stalls, both of which dwarf a
	// ~1% effect; `-exp all` adds allocator debt from earlier
	// experiments on top. So: interleave SINGLE runs of the two
	// variants (alternating which goes first, GC between runs), take
	// the governed/baseline ratio of each adjacent pair — the two
	// halves ran close enough together to share any speed phase — and
	// average the ratios after trimming the top and bottom 20%, which
	// discards the pairs a stall or phase boundary landed in. The first
	// pair is warmup.
	one := func(governed bool, wantDig string) (time.Duration, string) {
		runtime.GC()
		d, got := govAnalyze(srcs, governed)
		if wantDig != "" && got != wantDig {
			die(fmt.Errorf("governed=%v: output varied across runs", governed))
		}
		return d, got
	}
	var baseD, govD time.Duration
	var baseDig, govDig string
	var ratios []float64
	for t := 0; t < pairs; t++ {
		var bd, gd time.Duration
		if t%2 == 0 {
			bd, baseDig = one(false, baseDig)
			gd, govDig = one(true, govDig)
		} else {
			gd, govDig = one(true, govDig)
			bd, baseDig = one(false, baseDig)
		}
		if t == 0 {
			continue // warmup pair: first runs pay compilation of hot paths
		}
		baseD += bd
		govD += gd
		ratios = append(ratios, gd.Seconds()/bd.Seconds())
	}
	sort.Float64s(ratios)
	trim := len(ratios) / 5
	var sum float64
	for _, r := range ratios[trim : len(ratios)-trim] {
		sum += r
	}
	overhead := (sum/float64(len(ratios)-2*trim) - 1) * 100
	baseD /= pairs - 1
	govD /= pairs - 1

	bench := govBench{
		Experiment:      "governance-overhead",
		Workload:        "MixedTree(4,25,2002), full bundled checker suite",
		Host:            profiling.Host(),
		Trials:          pairs - 1,
		BaselineSeconds: baseD.Seconds(),
		GovernedSeconds: govD.Seconds(),
		OverheadPct:     overhead,
		BoundPct:        boundPct,
		Identical:       baseDig == govDig,
		PeakRSSBytes:    profiling.PeakRSS(),
	}
	fmt.Printf("baseline Run():              %8.3fs\n", bench.BaselineSeconds)
	fmt.Printf("governed RunContext+budgets: %8.3fs\n", bench.GovernedSeconds)
	fmt.Printf("overhead: %+.2f%% (bound %.0f%%), identical output: %v\n",
		overhead, boundPct, bench.Identical)
	if !bench.Identical {
		die(fmt.Errorf("governed output differs from baseline — governance is not invisible"))
	}
	if overhead > boundPct {
		die(fmt.Errorf("governance overhead %.2f%% exceeds %.0f%% bound", overhead, boundPct))
	}
	writeBench("BENCH_governance.json", bench)
}
