package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/mc"
)

// expFeas measures the second-tier feasibility pass (DESIGN.md §13)
// on a seeded population where ground truth is exact: half the
// reports are false positives whose recorded witness paths are
// arithmetically infeasible (disjoint intervals; an equality pinned
// outside an inequality's range — both invisible to the tier-1
// pruner), and half are genuine use-after-frees the pass must not
// touch. The headline numbers are the infeasible-kill rate on the
// seeded false positives, the false-kill rate on the seeded true
// positives (asserted to be exactly zero — the pass's soundness
// contract), and the per-verdict latency distribution. A second,
// warm run through the same cache store checks that verdicts replay
// content-addressed. The series lands in BENCH_feas.json.

// feasShortFlag trims the population for CI.
var feasShortFlag = flag.Bool("feas-short", false, "feas experiment: smaller population (CI mode)")

type feasBench struct {
	Experiment string              `json:"experiment"`
	Workload   string              `json:"workload"`
	Host       profiling.HostFacts `json:"host"`
	Short      bool                `json:"short,omitempty"`
	Funcs      int                 `json:"funcs"`
	Reports    int                 `json:"reports"`
	SeededTPs  int                 `json:"seeded_true_positives"`
	SeededFPs  int                 `json:"seeded_false_positives"`

	Confirmed  int64 `json:"confirmed"`
	Infeasible int64 `json:"infeasible"`
	Unknown    int64 `json:"unknown"`

	// InfeasibleKillRate is the fraction of seeded-FP reports the pass
	// marked infeasible; FalseKillRate is the fraction of seeded-TP
	// reports marked infeasible and must be 0.
	InfeasibleKillRate float64 `json:"infeasible_kill_rate"`
	FalseKillRate      float64 `json:"false_kill_rate"`
	// ConfirmRate is the fraction of seeded-TP reports marked confirmed.
	ConfirmRate float64 `json:"tp_confirm_rate"`

	P50Micros int64 `json:"verdict_p50_us"`
	P95Micros int64 `json:"verdict_p95_us"`

	ColdSeconds   float64 `json:"verify_cold_seconds"`
	WarmSeconds   float64 `json:"verify_warm_seconds"`
	WarmCacheHits int64   `json:"warm_cache_hits"`
	// PeakRSSBytes is the process's high-water resident set when the
	// series finished (cumulative over every run in this process).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

func feasAnalyze(pr workload.Program, store cache.Store) *mc.Result {
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{CacheStore: store}); err != nil {
		die(err)
	}
	a.AddSource("feas.c", pr.Source)
	if err := a.LoadBundledChecker("free"); err != nil {
		die(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		die(err)
	}
	return res
}

func expFeas() {
	funcs := 200
	if *feasShortFlag {
		funcs = 48
	}
	const seed = 2002
	pr := workload.FeasPopulation(funcs, seed)
	truth := map[string]bool{}
	for _, b := range pr.Bugs {
		truth[b.Func] = true
	}

	store := cache.NewMemStore()
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{CacheStore: store}); err != nil {
		die(err)
	}
	a.AddSource("feas.c", pr.Source)
	if err := a.LoadBundledChecker("free"); err != nil {
		die(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		die(err)
	}

	t0 := time.Now()
	stats := a.Verify(res, 4)
	cold := time.Since(t0)

	bench := feasBench{
		Experiment: "feas-verdicts",
		Workload:   fmt.Sprintf("FeasPopulation(%d,%d), free checker, 4 verdict workers", funcs, seed),
		Host:       profiling.Host(),
		Short:      *feasShortFlag,
		Funcs:      funcs,
		Reports:    len(res.Reports),
		SeededTPs:  len(pr.Bugs),
		SeededFPs:  funcs - len(pr.Bugs),
		Confirmed:  stats.Confirmed,
		Infeasible: stats.Infeasible,
		Unknown:    stats.Unknown,
		P50Micros:  stats.P50Micros,
		P95Micros:  stats.P95Micros,
	}

	var fpReports, fpKilled, tpReports, tpKilled, tpConfirmed int
	for _, r := range res.Reports {
		if truth[r.Func] {
			tpReports++
			switch r.Verdict {
			case report.VerdictInfeasible:
				tpKilled++
				fmt.Printf("  FALSE KILL: %s (%s)\n", r, r.VerdictWhy)
			case report.VerdictConfirmed:
				tpConfirmed++
			}
		} else {
			fpReports++
			if r.Verdict == report.VerdictInfeasible {
				fpKilled++
			}
		}
	}
	if fpReports > 0 {
		bench.InfeasibleKillRate = float64(fpKilled) / float64(fpReports)
	}
	if tpReports > 0 {
		bench.FalseKillRate = float64(tpKilled) / float64(tpReports)
		bench.ConfirmRate = float64(tpConfirmed) / float64(tpReports)
	}
	bench.ColdSeconds = cold.Seconds()

	// Warm pass: a fresh analyzer over the same store replays both the
	// unit results and the verdicts content-addressed.
	resWarm := feasAnalyze(pr, store)
	aw := mc.NewAnalyzer()
	if err := aw.Configure(mc.RunConfig{CacheStore: store}); err != nil {
		die(err)
	}
	t1 := time.Now()
	warmStats := aw.Verify(resWarm, 4)
	bench.WarmSeconds = time.Since(t1).Seconds()
	bench.WarmCacheHits = warmStats.CacheHits

	fmt.Printf("population: %d functions (%d seeded TPs, %d seeded FPs), %d reports\n",
		funcs, bench.SeededTPs, bench.SeededFPs, bench.Reports)
	fmt.Printf("verdicts: %d confirmed, %d infeasible, %d unknown\n",
		stats.Confirmed, stats.Infeasible, stats.Unknown)
	fmt.Printf("infeasible-kill rate on seeded FPs: %.3f (%d/%d)\n",
		bench.InfeasibleKillRate, fpKilled, fpReports)
	fmt.Printf("false-kill rate on seeded TPs:      %.3f (%d/%d)  [must be 0]\n",
		bench.FalseKillRate, tpKilled, tpReports)
	fmt.Printf("TP confirm rate: %.3f, verdict latency p50 %dus p95 %dus\n",
		bench.ConfirmRate, stats.P50Micros, stats.P95Micros)
	fmt.Printf("verify wall-clock: cold %.3fs, warm %.3fs (%d verdict cache hits)\n",
		bench.ColdSeconds, bench.WarmSeconds, bench.WarmCacheHits)

	if tpKilled > 0 {
		die(fmt.Errorf("feas: %d seeded true positives marked infeasible — the pass is unsound", tpKilled))
	}
	if fpKilled == 0 {
		die(fmt.Errorf("feas: no seeded false positive was killed — the pass is inert"))
	}
	if bench.WarmCacheHits == 0 {
		die(fmt.Errorf("feas: warm run replayed no verdicts from the cache"))
	}

	bench.PeakRSSBytes = profiling.PeakRSS()
	writeBench("BENCH_feas.json", bench)
}
