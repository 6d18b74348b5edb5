package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a run without tracing reports, on every
// workload. peak_rss_mb is filled in by the parent process.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"kloc_per_s", "KLoC/s"},
	{"verdict_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics a traced run reports, on every workload.
// A layer the workload does not reach reports 0. Times and counts are
// means per traced op unless the name says otherwise.
var perLayer = []metricDef{
	{"cc.parse_ms", "ms"}, {"cc.parse_mb_per_s", "MB/s"}, {"cc.files", "count"},
	{"prog.build_ms", "ms"}, {"prog.funcs", "count"}, {"prog.blocks", "count"}, {"prog.units", "count"},
	{"metal.compile_ms", "ms"},
	{"core.dispatch_compile_ms", "ms"}, {"core.traverse_ms", "ms"}, {"core.blocks", "count"},
	{"core.points", "count"}, {"core.paths", "count"}, {"core.pruned_paths", "count"},
	{"core.block_cache_hit_ratio", "ratio"}, {"core.func_cache_hits", "count"}, {"core.instance_ops", "count"},
	{"feas.verify_ms", "ms"}, {"feas.verdicts", "count"}, {"feas.unknown_ratio", "ratio"},
	{"rank.ms", "ms"},
	{"mc.parse_ms", "ms"}, {"mc.build_ms", "ms"}, {"mc.analyze_ms", "ms"}, {"mc.merge_ms", "ms"},
	{"mc.units_live", "count"}, {"mc.units_replayed", "count"}, {"mc.unit_reuse_ratio", "ratio"},
	{"mc.funcs_live", "count"}, {"mc.cold_ref_ms", "ms"}, {"mc.unattributed_ms", "ms"},
	{"cache.gets", "count"}, {"cache.get_ms", "ms"}, {"cache.get_mb", "MiB"},
	{"cache.puts", "count"}, {"cache.put_ms", "ms"}, {"cache.put_mb", "MiB"},
	{"cache.hit_ratio", "ratio"}, {"cache.decode_ms", "ms"},
	{"cache.http_fetches", "count"}, {"cache.http_coalesced", "count"},
	{"spill.evictions", "count"}, {"spill.reloads", "count"}, {"spill.mb", "MiB"}, {"spill.asts_released", "count"},
	{"server.analyze_ms", "ms"}, {"server.queue_ms", "ms"}, {"server.reports_ms", "ms"},
	{"server.metrics_ms", "ms"}, {"server.rejected", "count"}, {"server.coalesced", "count"},
	{"fleet.dispatch_ms", "ms"}, {"fleet.dispatches", "count"}, {"fleet.units_remote", "count"},
	{"fleet.requeues", "count"}, {"fleet.http_requests", "count"}, {"fleet.http_mb", "MiB"},
	{"fleet.local_ref_ms", "ms"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.mallocs", "count"}, {"runtime.gc_cycles", "count"},
	{"loadgen.lag_ms", "ms"}, {"trace.op_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
}

// runConfig is one workload run.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// WorkDir holds the run's temporary files (cache directories, spill
	// logs); TraceDir receives the traced run's spans and rows.
	WorkDir  string
	TraceDir string
	// Setups is how many times set-up runs (3); setup_s is their
	// median and the last instance is measured.
	Setups int
	// Tiny shrinks every tree for the self-test.
	Tiny bool
	// PerturbRef corrupts every reference digest, so a correct program
	// must fail the gate (self-test of the gate itself).
	PerturbRef bool
}

// matches is the correctness gate's digest comparison.
func (c *runConfig) matches(got, want string) bool {
	if c.PerturbRef {
		want = "perturbed-" + want
	}
	return got == want
}

// size returns the workload's tree size: files and functions per file.
func (c *runConfig) size(files int) (int, int) {
	if c.Tiny {
		return 2, 6
	}
	return files, 25
}

// opSample is one op as the client saw it.
type opSample struct {
	ms        float64 // latency of the op
	verdictMs float64 // until the op's reports were final, verdicts included
	lines     int     // source lines the op analysed
	readMs    float64 // until the op's ranked reports were rendered, where no open-loop reader runs
	fault     string  // non-empty: the op failed (error status, degraded or failed run)
	edit      string  // the edit the op applied, where there is one
}

// instance is one set-up workload.
type instance interface {
	// inputs is the sha256 of every input the set-up generated.
	inputs() string
	// prepare computes reference outputs; it runs after set-up and is
	// not part of setup_s.
	prepare() error
	// op runs op i. On a traced op tr is non-nil and row receives the
	// op's per-layer values.
	op(i, opID int64, tr *tracer, row map[string]float64) opSample
	// check gates the op just run against its reference; it runs
	// outside the op's timing. row is non-nil on a traced op.
	check(row map[string]float64) error
	// finish runs after the last op: post-run gates and run-wide
	// counters (into end).
	finish(end map[string]float64) error
	close()
}

// readRate is daemon_mix's open-loop reader rate, in reads per second.
// No client trace backs it: it is a fixed, small share (6-7%) of the
// daemon's read capacity on one connection, measured on the 2-CPU
// reference host as the reads' mean handler times in a traced run
// (/v1/reports ~1.9 ms, /v1/metrics ~0.7 ms while the writer runs, so
// ~770 alternating reads/s). At that share reads seldom queue behind
// each other, and read latency shows contention with the writer's
// analyses rather than the reader's own load.
const readRate = 50

// openReader is a workload read by an open-loop client while its ops
// run. read is the k-th read and may run concurrently with op; timed
// reports whether its latency counts towards read_p50_ms and
// read_p90_ms (reads of the reports do, monitoring scrapes do not).
// Other workloads have no separate reader: a user reads each op's
// ranked reports as the op ends (opSample.readMs).
type openReader interface {
	read(k int64) (timed bool, err error)
}

// workloadSpec is one named workload.
type workloadSpec struct {
	// setup builds a fresh instance; k counts the set-ups of a run.
	setup func(cfg *runConfig, k int) (instance, error)
	// topLevel names the per-layer times that tile a traced op: with
	// mc.unattributed_ms they add up to trace.op_ms.
	topLevel []string
	// cycle is the length of the workload's input cycle (an edit window,
	// a tree pool). A run ends on a whole number of cycles, so every run
	// weighs the inputs alike; a traced run, which traces every other
	// op, ends on a whole number of pairs of cycles, so with an odd cycle
	// every input is traced equally often.
	cycle int
	// minOps is the fewest ops a run makes, however long they take.
	minOps int
}

// cachedLayers tile an op that runs mc's cached path in this process.
var cachedLayers = []string{"metal.compile_ms", "mc.parse_ms", "mc.build_ms", "mc.analyze_ms", "mc.merge_ms", "rank.ms"}

// workloads are the benchmark's workloads. edit_loop runs by hand only:
// BENCHMARK.json leaves it out as unsteady (layers.json says why).
var workloads = map[string]workloadSpec{
	"cold_batch": {setupColdBatch, []string{"metal.compile_ms", "cc.parse_ms", "prog.build_ms",
		"core.dispatch_compile_ms", "core.traverse_ms", "mc.merge_ms", "feas.verify_ms", "rank.ms"}, 1, 0},
	"edit_loop": {setupEditLoop, cachedLayers, editWindow, 0},
	// The analysis runs inside the daemon: its phases, plus the
	// handler's time outside the run.
	"daemon_mix": {setupDaemonMix, []string{"mc.parse_ms", "mc.build_ms", "mc.analyze_ms", "mc.merge_ms", "server.queue_ms"}, editWindow, rssPosts},
	"fleet_cold": {setupFleetCold, cachedLayers, fleetPool, 0},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo records what a run measured on and with.
type runInfo struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	InputsSHA256 string  `json:"inputs_sha256"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Ops          int     `json:"ops"`
	Reads        int     `json:"reads"`
	Seconds      float64 `json:"seconds"`
	TraceFile    string  `json:"trace_file,omitempty"`
}

// result is a run's outcome, as the child reports it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      runInfo                `json:"info"`
	// Error explains correct == false.
	Error string `json:"error,omitempty"`
	// ServerRSSMB is the peak RSS of a workload's server process; when
	// set it is the workload's peak_rss_mb.
	ServerRSSMB float64 `json:"server_peak_rss_mb,omitempty"`
}

// opRow is one traced op in the trace file.
type opRow struct {
	Op     int64              `json:"op"`
	Edit   string             `json:"edit,omitempty"`
	Ms     float64            `json:"op_ms"`
	Layers map[string]float64 `json:"layers"`
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// readStats is the open-loop reader's record.
type readStats struct {
	mu        sync.Mutex
	latency   []float64 // from due time to completion
	lag       []float64 // from due time to send
	attempted int
	failed    int
}

// openLoop issues reads at a fixed rate until stop closes, each in its
// own goroutine so a slow read never delays the next one's send; a
// read is timed from when it was due. At most maxOutstanding reads are
// in flight; beyond that, sends wait and the wait shows as lag.
func openLoop(stop <-chan struct{}, rate float64, read func(k int64) (bool, error)) *readStats {
	const maxOutstanding = 64
	st := &readStats{}
	period := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	t0 := time.Now()
	for k := int64(0); ; k++ {
		due := t0.Add(time.Duration(k) * period)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			wg.Wait()
			return st
		case <-timer.C:
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(k int64, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			sent := time.Now()
			timed, err := read(k)
			done := time.Now()
			st.mu.Lock()
			st.attempted++
			if err != nil {
				st.failed++
				fmt.Fprintf(os.Stderr, "read %d: %v\n", k, err)
			} else if timed {
				st.latency = append(st.latency, ms(done.Sub(due)))
			}
			st.lag = append(st.lag, ms(sent.Sub(due)))
			st.mu.Unlock()
		}(k, due)
	}
}

// run sets the workload up, measures it for cfg.Seconds and gates
// every op's output. An error means the run could not be measured; a
// gate mismatch comes back as Correct == false.
func run(cfg *runConfig) (*result, error) {
	wl, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	var setups []float64
	var inst instance
	for k := 0; k < cfg.Setups; k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = wl.setup(cfg, k)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(err error) {
		if res.Correct {
			res.Correct = false
			res.Error = err.Error()
		}
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}

	stop := make(chan struct{})
	readsDone := make(chan *readStats, 1)
	if r, ok := inst.(openReader); ok {
		go func() { readsDone <- openLoop(stop, readRate, r.read) }()
	} else {
		readsDone <- &readStats{}
	}

	// Closed loop: the next op starts when the previous one and its
	// gate are done. A traced run alternates untraced and traced ops,
	// so the two medians give the tracing overhead.
	var plain, traced []opSample
	var rows []opRow
	var ms0, ms1 runtime.MemStats
	cycle := int64(wl.cycle)
	if cfg.Trace {
		cycle *= 2
	}
	start := time.Now()
	more := func(i int64) bool {
		if !res.Correct {
			return false
		}
		if cfg.Trace && i < 2 {
			return true // at least one untraced and one traced op
		}
		return i < int64(wl.minOps) || time.Since(start).Seconds() < cfg.Seconds || i%cycle != 0
	}
	for i := int64(0); i == 0 || more(i); i++ {
		var row map[string]float64
		var optr *tracer
		if cfg.Trace && i%2 == 1 {
			row = map[string]float64{}
			optr = tr
			runtime.ReadMemStats(&ms0)
		}
		s := inst.op(i, i+1, optr, row)
		if _, ok := row["runtime.alloc_mb"]; row != nil && !ok {
			runtime.ReadMemStats(&ms1)
			memRow(row, &ms0, &ms1)
		}
		if s.fault != "" {
			fmt.Fprintf(os.Stderr, "op %d failed: %s\n", i, s.fault)
		}
		if err := inst.check(row); err != nil {
			fail(fmt.Errorf("op %d: %w", i, err))
		}
		if row != nil {
			traced = append(traced, s)
			rows = append(rows, opRow{Op: i + 1, Edit: s.edit, Ms: s.ms, Layers: row})
		} else {
			plain = append(plain, s)
		}
	}
	close(stop)
	reads := <-readsDone
	end := map[string]float64{}
	if err := inst.finish(end); err != nil {
		fail(err)
	}
	if sp, ok := inst.(interface{ peakRSS() float64 }); ok {
		res.ServerRSSMB = sp.peakRSS()
	}

	ops := append(append([]opSample(nil), plain...), traced...)
	res.Attempted = len(ops) + reads.attempted
	res.Failed = reads.failed
	for _, s := range ops {
		if s.fault != "" {
			res.Failed++
		}
	}
	res.Info = runInfo{
		Workload: cfg.Workload, Seed: cfg.Seed, InputsSHA256: inst.inputs(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Ops: len(ops), Reads: reads.attempted, Seconds: time.Since(start).Seconds(),
	}
	put := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("unknown metric " + name)
	}
	if !cfg.Trace {
		var lat, verdict []float64
		var lines, secs float64
		for _, s := range plain {
			if s.fault != "" {
				continue
			}
			lat = append(lat, s.ms)
			verdict = append(verdict, s.verdictMs)
			if _, ok := inst.(openReader); !ok {
				reads.latency = append(reads.latency, s.readMs)
			}
			lines += float64(s.lines)
			secs += s.ms / 1000
		}
		put(endToEnd, "setup_s", quantile(setups, 0.5))
		put(endToEnd, "op_p50_ms", quantile(lat, 0.5))
		put(endToEnd, "op_p90_ms", quantile(lat, 0.9))
		put(endToEnd, "kloc_per_s", lines/1000/secs)
		put(endToEnd, "verdict_p50_ms", quantile(verdict, 0.5))
		put(endToEnd, "read_p50_ms", quantile(reads.latency, 0.5))
		put(endToEnd, "read_p90_ms", quantile(reads.latency, 0.9))
		return res, nil
	}

	// Per-layer metrics: means over the traced ops, so the top-level
	// layer times and mc.unattributed_ms add up to trace.op_ms.
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{Value: 0, Unit: d.unit}
	}
	for _, r := range rows {
		attributed := 0.0
		for _, k := range wl.topLevel {
			attributed += r.Layers[k]
		}
		r.Layers["mc.unattributed_ms"] = r.Ms - attributed
		r.Layers["trace.op_ms"] = r.Ms
		for k, v := range r.Layers {
			put(perLayer, k, res.Metrics[k].Value+v/float64(len(rows)))
		}
	}
	for k, v := range end {
		put(perLayer, k, v)
	}
	var lp, lt []float64
	for _, s := range plain {
		lp = append(lp, s.ms)
	}
	for _, s := range traced {
		lt = append(lt, s.ms)
	}
	put(perLayer, "trace.overhead_ratio", quantile(lt, 0.5)/quantile(lp, 0.5))
	put(perLayer, "loadgen.lag_ms", mean(reads.lag))
	res.Info.TraceFile = writeTrace(cfg, res.Info, rows, tr.all())
	printRows(cfg.Workload, rows)
	return res, nil
}

// memRow records the Go runtime's allocation and GC work between two
// snapshots in a per-layer row.
func memRow(row map[string]float64, before, after *runtime.MemStats) {
	row["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	row["runtime.mallocs"] = float64(after.Mallocs - before.Mallocs)
	row["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeTrace writes the traced run's rows and spans as JSON and
// returns the file's path ("" if it could not be written).
func writeTrace(cfg *runConfig, info runInfo, rows []opRow, spans []span) string {
	if cfg.TraceDir == "" {
		return ""
	}
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return ""
	}
	path := filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
	data, err := json.MarshalIndent(struct {
		Info  runInfo `json:"info"`
		Rows  []opRow `json:"rows"`
		Spans []span  `json:"spans"`
	}{info, rows, spans}, "", " ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return ""
	}
	return path
}

// printRows prints one line per traced edit to standard error: the
// per-edit view of how much of the tree each edit re-analysed.
func printRows(workload string, rows []opRow) {
	if workload != "edit_loop" && workload != "daemon_mix" {
		return
	}
	fmt.Fprintf(os.Stderr, "%-6s %-16s %10s %14s %10s %10s %10s\n",
		"op", "edit", "units_live", "units_replayed", "cache_gets", "cache_mb", "op_ms")
	for _, r := range rows {
		kind := strings.Fields(r.Edit + " -")[0]
		fmt.Fprintf(os.Stderr, "%-6d %-16s %10.0f %14.0f %10.0f %10.2f %10.1f\n", r.Op, kind,
			r.Layers["mc.units_live"], r.Layers["mc.units_replayed"],
			r.Layers["cache.gets"], r.Layers["cache.get_mb"], r.Ms)
	}
}
