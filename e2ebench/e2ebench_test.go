package main

// Self-test of the benchmark at tiny tree sizes: every named metric is
// present, finite and carries its unit; traced and untraced ops produce
// the same digest; a perturbed reference digest fails the run; and
// BENCHMARK.json names exactly the workloads and metrics this program
// reports.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// daemon_mix starts its daemon process (os.Executable is the test
// binary here).
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-serve-daemon" {
			os.Exit(realMain(os.Args[1:], os.Stdout))
		}
	}
	os.Exit(m.Run())
}

func tinyConfig(t *testing.T, workload string, trace bool) *runConfig {
	return &runConfig{
		Workload: workload, Seed: 7, Seconds: 0.3, Trace: trace,
		WorkDir: t.TempDir(), TraceDir: t.TempDir(),
		Setups: 2, Tiny: true,
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestMetricsPresentFiniteAndUnited(t *testing.T) {
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d (%s)",
					wl, trace, res.Correct, res.Failed, res.Attempted, res.Error)
			}
			defs := perLayer
			if !trace {
				// peak_rss_mb is added by the parent process.
				defs = endToEnd[:len(endToEnd)-1]
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", wl, trace, d.name, m.Value)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
			if trace {
				checkAddsUp(t, wl, res)
			}
			if trace && wl == "fleet_cold" && res.Metrics["cache.http_fetches"].Value <= 0 {
				t.Errorf("fleet_cold: no worker fetches from the CAS counted")
			}
			if wl == "daemon_mix" && (res.Info.Ops < rssPosts || res.ServerRSSMB <= 0) {
				t.Errorf("daemon_mix: %d posts, daemon peak RSS %v MiB", res.Info.Ops, res.ServerRSSMB)
			}
		}
	}
}

// checkAddsUp: the top-level layer times plus mc.unattributed_ms make
// up the traced op wall.
func checkAddsUp(t *testing.T, wl string, res *result) {
	t.Helper()
	sum := res.Metrics["mc.unattributed_ms"].Value
	for _, k := range workloads[wl].topLevel {
		if _, ok := res.Metrics[k]; !ok {
			t.Fatalf("%s: top-level layer %s is not a per-layer metric", wl, k)
		}
		sum += res.Metrics[k].Value
	}
	if op := res.Metrics["trace.op_ms"].Value; op <= 0 || math.Abs(sum-op) > 1e-6*op {
		t.Errorf("%s: layers add up to %v ms, traced op wall %v ms", wl, sum, op)
	}
	if res.Metrics["trace.overhead_ratio"].Value <= 0 {
		t.Errorf("%s: no trace.overhead_ratio", wl)
	}
}

// TestReplayDigestEqualsUntraced: cold_batch's traced op rebuilds the
// pipeline from the layers' public functions; its ranked digest must
// be the untraced op's.
func TestReplayDigestEqualsUntraced(t *testing.T) {
	cfg := tinyConfig(t, "cold_batch", true)
	inst, err := setupColdBatch(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*coldBatch)
	if s := w.op(0, 1, nil, nil); s.fault != "" {
		t.Fatal(s.fault)
	}
	plain := w.digest
	row := map[string]float64{}
	if s := w.op(1, 2, newTracer(), row); s.fault != "" {
		t.Fatal(s.fault)
	}
	if w.digest != plain {
		t.Fatalf("traced digest %s, untraced %s", w.digest, plain)
	}
	if row["core.traverse_ms"] <= 0 || row["cc.files"] != 2 {
		t.Errorf("replay recorded no layers: %v", row)
	}
}

func TestPerturbedReferenceFailsRun(t *testing.T) {
	for _, wl := range workloadNames() {
		cfg := tinyConfig(t, wl, false)
		cfg.PerturbRef = true
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Correct {
			t.Errorf("%s: run with a perturbed reference digest passed", wl)
		}
		var out bytes.Buffer
		if code := emit(res, &out); code == 0 {
			t.Errorf("%s: failed gate exits 0", wl)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last["correct"] != false {
			t.Errorf("%s: last line %q", wl, lines[len(lines)-1])
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and layers.json in step
// with the workloads and metrics the program reports. A workload left
// out of BENCHMARK.json must say why in layers.json.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
		gated[w.Name] = true
	}
	same := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	data, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var notes struct {
		Workloads map[string]struct {
			Gated  bool   `json:"gated"`
			Reason string `json:"not_gated_because"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &notes); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames() {
		n, ok := notes.Workloads[wl]
		switch {
		case !ok:
			t.Errorf("layers.json does not describe %s", wl)
		case n.Gated != gated[wl]:
			t.Errorf("layers.json says %s gated=%v, BENCHMARK.json says %v", wl, n.Gated, gated[wl])
		case !n.Gated && n.Reason == "":
			t.Errorf("layers.json does not say why %s is left out of BENCHMARK.json", wl)
		}
	}
}
