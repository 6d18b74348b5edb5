package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/profiling"
	"repro/internal/server"
	"repro/internal/workload"
)

// expRegistry measures the checker-platform tentpole (DESIGN.md §14)
// end to end over HTTP: how much the first analyze after enabling a
// new checker version costs versus a steady-state warm analyze
// (hot-reload latency — the price of extending the active set without
// a restart), and how many machine-written checkers per second the
// admission harness can validate through /v1/checkers. The series
// lands in BENCH_registry.json. Structural violations (a reload that
// does not take effect, an admission the harness gets wrong) kill the
// run; timing is reported, not bounded, because the validation corpus
// dominates and virtualized hosts drift.

type registryBench struct {
	Experiment string              `json:"experiment"`
	Workload   string              `json:"workload"`
	Host       profiling.HostFacts `json:"host"`
	// Hot-reload: steady-state warm analyze vs the first analyze after
	// an enable flipped the active checker set.
	WarmAnalyzeSeconds   float64 `json:"warm_analyze_seconds"`
	ReloadAnalyzeSeconds float64 `json:"reload_analyze_seconds"`
	ReloadLatencySeconds float64 `json:"reload_latency_seconds"`
	Reloads              int64   `json:"reloads"`
	// Admission: upload+validate+verdict round-trips through the
	// harness, including the one hostile checker that must reject.
	Admissions          int     `json:"admissions"`
	Admitted            int     `json:"admitted"`
	Rejected            int     `json:"rejected"`
	AdmissionSeconds    float64 `json:"admission_seconds"`
	AdmissionsPerSecond float64 `json:"admissions_per_second"`
	PeakRSSBytes        int64   `json:"peak_rss_bytes"`
}

func regPost(ts *httptest.Server, path string, body interface{}) (int, []byte) {
	var raw []byte
	if body != nil {
		raw, _ = json.Marshal(body)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// reloadCheckerVersion generates version v of one checker name: same
// state machine, distinct message, so each upload is a new
// content-addressed version and each enable supersedes the previous.
func reloadCheckerVersion(v int) string {
	return fmt.Sprintf(`
sm reload_checker;
state decl any_pointer p;

start:
    { kfree(p) } ==> p.freed
;

p.freed:
    { *p } ==> p.stop, { err("reload probe v%d: use after free"); }
;
`, v)
}

// admissionProbe generates the i-th well-formed candidate for the
// throughput series: each parses and runs clean (reporting nothing on
// the corpus), so the harness must admit all of them.
func admissionProbe(i int) string {
	return fmt.Sprintf(`
sm gen_%d_checker;

start:
    { bench_probe_fn_%d() } ==> start, { err("probe %d fired"); }
;
`, i, i, i)
}

const hostileProbe = `
sm hostile_probe_checker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } ==> start, { err("everything is suspicious"); }
;
`

func expRegistry() {
	srcs, _ := workload.MixedTree(3, 12, 2002)
	srv := server.New(server.Config{Checkers: []string{"free", "lock", "null"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	analyze := func(files map[string]string) (time.Duration, server.AnalyzeResponse) {
		req := server.AnalyzeRequest{Files: files}
		start := time.Now()
		code, body := regPost(ts, "/v1/analyze", req)
		elapsed := time.Since(start)
		if code != http.StatusOK {
			die(fmt.Errorf("analyze: status %d: %s", code, body))
		}
		var out server.AnalyzeResponse
		if err := json.Unmarshal(body, &out); err != nil {
			die(err)
		}
		return elapsed, out
	}

	// Seed the resident tree, then settle into the warm steady state.
	if _, res := analyze(srcs); res.Reports == 0 {
		die(fmt.Errorf("bundled checkers silent on the bench tree"))
	}
	const warmRuns = 6
	var warm time.Duration
	for i := 0; i < warmRuns; i++ {
		d, _ := analyze(nil)
		warm += d
	}
	warm /= warmRuns

	// Hot-reload rounds: each round admits a new version of one checker
	// and times the analyze that first runs it. The enable supersedes
	// the previous version, so the active set size stays constant and
	// rounds are comparable.
	const reloadRounds = 6
	var reload time.Duration
	for round := 1; round <= reloadRounds; round++ {
		code, body := regPost(ts, "/v1/checkers", server.UploadRequest{Source: reloadCheckerVersion(round)})
		if code != http.StatusCreated {
			die(fmt.Errorf("upload round %d: status %d: %s", round, code, body))
		}
		var e server.CheckerJSON
		json.Unmarshal(body, &e)
		if code, body = regPost(ts, "/v1/checkers/"+e.ID+"/validate", nil); code != http.StatusOK {
			die(fmt.Errorf("validate round %d: status %d: %s", round, code, body))
		}
		if code, body = regPost(ts, "/v1/checkers/"+e.ID+"/enable", nil); code != http.StatusOK {
			die(fmt.Errorf("enable round %d: status %d: %s", round, code, body))
		}
		d, res := analyze(nil)
		reload += d
		found := false
		for _, r := range res.Ranked {
			if r.Checker == "reload_checker" {
				found = true
				break
			}
		}
		if !found {
			die(fmt.Errorf("round %d: enabled checker not live on the next analyze", round))
		}
	}
	reload /= reloadRounds

	// Admission throughput: a batch of clean candidates plus one
	// hostile over-reporter, full upload → validate → verdict per
	// candidate. Note the reload rounds above already validated
	// reloadRounds candidates; this series is measured separately.
	const probes = 12
	admitted, rejected := 0, 0
	admStart := time.Now()
	for i := 0; i <= probes; i++ {
		src := admissionProbe(i)
		if i == probes {
			src = hostileProbe
		}
		code, body := regPost(ts, "/v1/checkers", server.UploadRequest{Source: src})
		if code != http.StatusCreated {
			die(fmt.Errorf("admission upload %d: status %d: %s", i, code, body))
		}
		var e server.CheckerJSON
		json.Unmarshal(body, &e)
		code, body = regPost(ts, "/v1/checkers/"+e.ID+"/validate", nil)
		if code != http.StatusOK {
			die(fmt.Errorf("admission validate %d: status %d: %s", i, code, body))
		}
		var verdict struct {
			Status string `json:"status"`
		}
		json.Unmarshal(body, &verdict)
		switch verdict.Status {
		case "admitted":
			admitted++
		case "rejected":
			rejected++
		default:
			die(fmt.Errorf("admission %d: unexpected status %q", i, verdict.Status))
		}
	}
	admElapsed := time.Since(admStart)
	if admitted != probes {
		die(fmt.Errorf("admitted %d of %d clean candidates", admitted, probes))
	}
	if rejected != 1 {
		die(fmt.Errorf("hostile candidate not rejected (rejected=%d)", rejected))
	}

	// The daemon's own reload counter must agree with the rounds.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		die(err)
	}
	var st server.StatsResponse
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.CheckerReloads != reloadRounds {
		die(fmt.Errorf("checker_reloads = %d, want %d", st.CheckerReloads, reloadRounds))
	}

	bench := registryBench{
		Experiment:           "registry-platform",
		Workload:             "MixedTree(3,12,2002) resident tree; free,lock,null bundled + uploaded reload_checker versions; harness corpus scale 4",
		Host:                 profiling.Host(),
		WarmAnalyzeSeconds:   warm.Seconds(),
		ReloadAnalyzeSeconds: reload.Seconds(),
		ReloadLatencySeconds: reload.Seconds() - warm.Seconds(),
		Reloads:              st.CheckerReloads,
		Admissions:           probes + 1,
		Admitted:             admitted,
		Rejected:             rejected,
		AdmissionSeconds:     admElapsed.Seconds(),
		AdmissionsPerSecond:  float64(probes+1) / admElapsed.Seconds(),
		PeakRSSBytes:         profiling.PeakRSS(),
	}
	fmt.Printf("warm analyze:          %8.4fs\n", bench.WarmAnalyzeSeconds)
	fmt.Printf("post-enable analyze:   %8.4fs (hot-reload latency %+.4fs)\n",
		bench.ReloadAnalyzeSeconds, bench.ReloadLatencySeconds)
	fmt.Printf("admissions: %d (%d admitted, %d rejected) in %.3fs = %.1f/s\n",
		bench.Admissions, admitted, rejected, bench.AdmissionSeconds, bench.AdmissionsPerSecond)
	writeBench("BENCH_registry.json", bench)
}
