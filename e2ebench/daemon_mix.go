package main

// daemon_mix: the resident xgccd daemon under reads beside writes. A
// closed-loop writer posts only the files each seeded edit changed; an
// open-loop reader alternates GET /v1/reports and GET /v1/metrics at a
// fixed rate. The daemon runs every bundled checker at -j 2 with a
// resident-memory budget (so summaries spill) and the asynchronous
// verdict tier on. After the run, every post's /v1/reports set is
// gated against a cold plain run of its tree with verdicts.
//
// The daemon runs in a process of its own (this binary with
// -serve-daemon), as a deployed xgccd does, so the clients' goroutines
// never wait for the daemon's Go scheduler and peak_rss_mb is the
// daemon's own. Besides the daemon's routes, that process serves a few
// under /e2ebench/ that let the workload drain the verdict queue and
// read the traced run's counters.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/profiling"
	"repro/internal/server"
	"repro/internal/workload"
)

// daemonResidentMB is the daemon's resident-memory budget: small
// enough that the summaries of the workload's tree spill.
const daemonResidentMB = 8

// rssPosts is the post after which the daemon's peak RSS is read: a
// whole number of edit windows, and the fewest posts a run makes. The
// daemon's memory store never evicts and each post adds about 1 MiB to
// it, so a peak read at the end of a timed run would grow with the
// daemon's speed.
const rssPosts = 10 * editWindow

// daemonTrace is what the daemon process reports when a traced op
// ends: the op's store traffic as per-layer values, the analyze
// request's span, and every traced read's handler time so far. The
// runtime.* values are the daemon process's.
type daemonTrace struct {
	Layers       map[string]float64 `json:"layers"`
	AnalyzeStart int64              `json:"analyze_start_unix_ns"`
	AnalyzeEnd   int64              `json:"analyze_end_unix_ns"`
	ReportsMs    []float64          `json:"reports_ms"`
	MetricsMs    []float64          `json:"metrics_ms"`
}

// serveDaemon runs the daemon until its standard input closes, after
// printing its base URL as the first line of stdout.
func serveDaemon(trace bool, stdout io.Writer) int {
	var store cache.Store = cache.NewMemStore()
	var ts *tracedStore
	if trace {
		ts = &tracedStore{inner: store}
		store = ts
	}
	srv := server.New(server.Config{
		Checkers:      checkerNames(),
		Jobs:          jobs,
		Store:         store,
		MaxResidentMB: daemonResidentMB,
		Verify:        true,
		VerifyWorkers: 1,
	})
	defer srv.Close()
	th := &tracedHandler{inner: srv.Handler()}
	var mem0 runtime.MemStats
	mux := http.NewServeMux()
	mux.Handle("/", th)
	mux.HandleFunc("POST /e2ebench/drain", func(w http.ResponseWriter, r *http.Request) {
		srv.DrainVerdicts()
	})
	mux.HandleFunc("POST /e2ebench/trace", func(w http.ResponseWriter, r *http.Request) {
		if ts == nil {
			http.Error(w, "not a traced run", http.StatusConflict)
			return
		}
		if r.URL.Query().Get("on") == "1" {
			ts.take()
			runtime.ReadMemStats(&mem0)
			ts.on.Store(true)
			th.on.Store(true)
			return
		}
		ts.on.Store(false)
		th.on.Store(false)
		out := daemonTrace{Layers: map[string]float64{}}
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		memRow(out.Layers, &mem0, &mem1)
		ts.take().addTo(out.Layers)
		th.mu.Lock()
		out.AnalyzeStart, out.AnalyzeEnd = th.analyzeStart.UnixNano(), th.analyzeEnd.UnixNano()
		out.ReportsMs = append(out.ReportsMs, th.reportsMs...)
		out.MetricsMs = append(out.MetricsMs, th.metricsMs...)
		th.mu.Unlock()
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("GET /e2ebench/rss", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%g\n", float64(profiling.PeakRSS())/(1<<20))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench daemon: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	fmt.Fprintf(stdout, "http://%s\n", ln.Addr())
	io.Copy(io.Discard, os.Stdin)
	hs.Close()
	<-served
	return 0
}

type daemonMix struct {
	cfg      *runConfig
	base     map[string]string
	stream   *editStream
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	url      string
	writer   *http.Client
	reader   *http.Client
	resident map[string]string

	// posted holds each post's tree and /v1/reports digest, gated
	// after the run so reference runs never compete with the reader.
	posted []postedTree
	// reads holds the daemon's handler time of every traced read.
	reads     daemonTrace
	daemonRSS float64
}

type postedTree struct {
	tree   map[string]string
	digest string
}

// oneConn is a client holding at most one connection to the daemon.
func oneConn() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// startDaemon starts the daemon process and waits for its URL.
func (w *daemonMix) startDaemon() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if w.cfg.Trace {
		trace = "1"
	}
	w.cmd = exec.Command(exe, "-serve-daemon", "-trace", trace)
	w.cmd.Stderr = os.Stderr
	if w.stdin, err = w.cmd.StdinPipe(); err != nil {
		return err
	}
	out, err := w.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := w.cmd.Start(); err != nil {
		return err
	}
	line := make(chan string, 1)
	go func() {
		s, _ := bufio.NewReader(out).ReadString('\n')
		line <- strings.TrimSpace(s)
		io.Copy(io.Discard, out)
	}()
	select {
	case w.url = <-line:
	case <-time.After(30 * time.Second):
	}
	if !strings.HasPrefix(w.url, "http://") {
		w.close()
		return fmt.Errorf("daemon process printed no URL")
	}
	return nil
}

func setupDaemonMix(cfg *runConfig, _ int) (instance, error) {
	files, funcs := cfg.size(16)
	base, _ := workload.MixedTree(files, funcs, cfg.Seed)
	w := &daemonMix{cfg: cfg, base: base, stream: newEditStream(base, cfg.Seed),
		writer: oneConn(), reader: oneConn()}
	if err := w.startDaemon(); err != nil {
		return nil, err
	}
	// The full tree, then one warm re-analysis of it as warm-up.
	for _, req := range []server.AnalyzeRequest{{Reset: true, Files: base}, {}} {
		_, fault, err := w.post(req)
		if err == nil && fault != "" {
			err = errors.New(fault)
		}
		if err == nil {
			_, err = w.call(http.MethodPost, "/e2ebench/drain")
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("set-up post: %w", err)
		}
	}
	w.resident = base
	return w, nil
}

// post sends one analyze request and decodes the response; fault is
// why the daemon's answer counts as a failed op.
func (w *daemonMix) post(req server.AnalyzeRequest) (out *server.AnalyzeResponse, fault string, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	resp, err := w.writer.Post(w.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Sprintf("status %d: %.200s", resp.StatusCode, data), nil
	}
	out = &server.AnalyzeResponse{}
	if err := json.Unmarshal(data, out); err != nil {
		return nil, "", err
	}
	switch {
	case out.Degraded:
		fault = "degraded run"
	case len(out.Failures) > 0:
		fault = fmt.Sprintf("%d checker failures", len(out.Failures))
	}
	return out, fault, nil
}

// call makes one writer-side request and returns the body of a 200.
func (w *daemonMix) call(method, path string) ([]byte, error) {
	return request(w.writer, method, w.url+path)
}

// request sends a bodiless request and returns the body of a 200.
func request(c *http.Client, method, url string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d", method, req.URL.Path, resp.StatusCode)
	}
	return data, nil
}

func (w *daemonMix) stats() (*server.StatsResponse, error) {
	data, err := w.call(http.MethodGet, "/v1/stats")
	if err != nil {
		return nil, err
	}
	var st server.StatsResponse
	return &st, json.Unmarshal(data, &st)
}

func (w *daemonMix) inputs() string { return inputsHash(w.base) }

func (w *daemonMix) prepare() error { return nil }

func (w *daemonMix) op(i, opID int64, tr *tracer, row map[string]float64) opSample {
	tree, edit := w.stream.next()
	s := opSample{lines: treeLines(tree), edit: edit.Name}
	fail := func(err error) opSample {
		s.fault = err.Error()
		return s
	}
	var before *server.StatsResponse
	if row != nil {
		var err error
		if before, err = w.stats(); err != nil {
			return fail(err)
		}
		if _, err := w.call(http.MethodPost, "/e2ebench/trace?on=1"); err != nil {
			return fail(err)
		}
	}
	root := tr.begin(opID, 0, "op")
	resp, fault, err := w.post(server.AnalyzeRequest{Files: changedFiles(w.resident, tree)})
	s.ms = root.end()
	if err != nil {
		return fail(err)
	}
	s.fault = fault
	if resp == nil {
		return s
	}
	w.resident = tree
	var dt daemonTrace
	if row != nil {
		data, err := w.call(http.MethodPost, "/e2ebench/trace?on=0")
		if err == nil {
			err = json.Unmarshal(data, &dt)
		}
		if err != nil {
			return fail(err)
		}
	}
	if _, err := w.call(http.MethodPost, "/e2ebench/drain"); err != nil {
		return fail(err)
	}
	s.verdictMs = root.elapsed()

	// Gate data: the reports as a reader now sees them.
	data, err := w.call(http.MethodGet, "/v1/reports")
	var ranked []server.ReportJSON
	if err == nil {
		err = json.Unmarshal(data, &ranked)
	}
	if err != nil {
		return fail(err)
	}
	w.posted = append(w.posted, postedTree{tree: tree, digest: digestJSON(ranked)})
	if w.daemonRSS == 0 && i+1 >= rssPosts {
		data, err := w.call(http.MethodGet, "/e2ebench/rss")
		if err == nil {
			_, err = fmt.Sscan(string(data), &w.daemonRSS)
		}
		if err != nil {
			return fail(err)
		}
	}

	if row != nil {
		incrRow(row, resp.Incr)
		for k, v := range dt.Layers {
			row[k] = v
		}
		start, end := time.Unix(0, dt.AnalyzeStart), time.Unix(0, dt.AnalyzeEnd)
		tr.record(opID, root.id(), "server.analyze", start, end)
		row["server.analyze_ms"] = ms(end.Sub(start))
		row["server.queue_ms"] = row["server.analyze_ms"] - float64(resp.ElapsedNano)/1e6
		row["feas.verify_ms"] = s.verdictMs - s.ms
		row["cc.files"] = float64(resp.Files)
		if sp := resp.Spill; sp != nil {
			row["spill.evictions"] = float64(sp.Evictions)
			row["spill.reloads"] = float64(sp.Reloads)
			row["spill.mb"] = float64(sp.SpillBytes) / (1 << 20)
			row["spill.asts_released"] = float64(sp.ASTsReleased)
		}
		w.reads = dt
		after, err := w.stats()
		if err != nil {
			return fail(err)
		}
		if before.Feas != nil && after.Feas != nil {
			done := after.Feas.Done - before.Feas.Done
			row["feas.verdicts"] = float64(done)
			if done > 0 {
				row["feas.unknown_ratio"] = float64(after.Feas.Unknown-before.Feas.Unknown) / float64(done)
			}
		}
	}
	return s
}

func (w *daemonMix) check(map[string]float64) error { return nil }

// read alternates the two read routes; the reports reads are the
// ones timed as read latency.
func (w *daemonMix) read(k int64) (bool, error) {
	path := "/v1/reports"
	if k%2 == 1 {
		path = "/v1/metrics"
	}
	_, err := request(w.reader, http.MethodGet, w.url+path)
	return k%2 == 0, err
}

// finish reads the run-wide counters, then gates every post against
// the CLI reference, a cold plain run of the same tree with synchronous
// verdicts.
func (w *daemonMix) finish(end map[string]float64) error {
	if w.daemonRSS == 0 {
		return fmt.Errorf("no daemon peak RSS: fewer than %d posts succeeded", rssPosts)
	}
	if w.cfg.Trace {
		st, err := w.stats()
		if err != nil {
			return err
		}
		end["server.rejected"] = float64(st.Rejected)
		end["server.coalesced"] = float64(st.CoalescedAnalyzes)
		end["server.reports_ms"] = mean(w.reads.ReportsMs)
		end["server.metrics_ms"] = mean(w.reads.MetricsMs)
	}
	var errs []error
	var refMs []float64
	for n, p := range w.posted {
		ref, wall, err := reference(p.tree, true)
		if err != nil {
			return err
		}
		refMs = append(refMs, ms(wall))
		if !w.cfg.matches(p.digest, ref) {
			errs = append(errs, fmt.Errorf("post %d: /v1/reports digest %.12s, reference %.12s", n, p.digest, ref))
		}
	}
	if w.cfg.Trace {
		end["mc.cold_ref_ms"] = mean(refMs)
	}
	return errors.Join(errs...)
}

// peakRSS is the daemon process's peak RSS in MiB after rssPosts
// posts: daemon_mix's peak_rss_mb.
func (w *daemonMix) peakRSS() float64 { return w.daemonRSS }

// close stops the daemon process, which exits when its stdin closes.
func (w *daemonMix) close() {
	w.writer.CloseIdleConnections()
	w.reader.CloseIdleConnections()
	w.stdin.Close()
	done := make(chan struct{})
	go func() {
		w.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		w.cmd.Process.Kill()
		<-done
	}
}
