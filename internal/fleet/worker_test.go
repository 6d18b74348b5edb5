package fleet_test

// Worker input validation: a job the worker cannot run is declined
// with a per-job Err — never a panic, never a whole-request 4xx
// (which the coordinator would requeue and retry) — writes nothing to
// the store, and lands on the coordinator's local-fallback path.
// FuzzWorkRequest drives the same handler with arbitrary bodies.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/fleet"
	"repro/internal/workload"
	"repro/mc"
)

// capturedRun returns the first UnitRun a cold cached analysis of a
// small tree offers its runner. The runner declines it, so the
// analysis itself runs locally.
func capturedRun(t testing.TB) *mc.UnitRun {
	t.Helper()
	srcs, _ := workload.MixedTree(1, 4, 46)
	var got *mc.UnitRun
	runner := func(ctx context.Context, r *mc.UnitRun) error {
		if got == nil {
			got = r
		}
		return errors.New("declined")
	}
	runCheckers(t, srcs, cache.NewMemStore(), runner, fleetCheckers)
	if got == nil || len(got.Jobs) == 0 {
		t.Fatal("the analysis offered no jobs")
	}
	return got
}

// oneJob copies run down to its first job, with a private checker
// table the caller may edit.
func oneJob(run *mc.UnitRun) *mc.UnitRun {
	r := *run
	r.Checkers = append([]string(nil), run.Checkers...)
	j := run.Jobs[0]
	j.Funcs = append([]string(nil), j.Funcs...)
	r.Jobs = []mc.UnitJob{j}
	return &r
}

// jobEdit turns a valid one-job run into a test case.
type jobEdit struct {
	name string
	edit func(r *mc.UnitRun)
}

// badJobs are the jobs a worker must decline.
var badJobs = []jobEdit{
	{"negative checker", func(r *mc.UnitRun) { r.Jobs[0].Checker = -1 }},
	{"checker out of range", func(r *mc.UnitRun) { r.Jobs[0].Checker = len(r.Checkers) }},
	{"checker without source", func(r *mc.UnitRun) { r.Checkers[r.Jobs[0].Checker] = "" }},
	{"unparsable checker", func(r *mc.UnitRun) { r.Checkers[r.Jobs[0].Checker] = "sm broken {" }},
	{"unknown function", func(r *mc.UnitRun) { r.Jobs[0].Funcs = append(r.Jobs[0].Funcs, "nosuch.c:nofn") }},
}

func workRequest(r *mc.UnitRun) fleet.WorkRequest {
	return fleet.WorkRequest{
		TreeFP: r.TreeFP, Files: r.Files, Options: r.Options,
		Checkers: r.Checkers, Marks: r.Marks, Jobs: r.Jobs,
	}
}

func TestWorkerDeclinesJobsItCannotRun(t *testing.T) {
	base := capturedRun(t)
	// Row 0 is the unedited job: the control that fills.
	cases := append([]jobEdit{{"valid", func(*mc.UnitRun) {}}}, badJobs...)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			valid := i == 0
			r := oneJob(base)
			tc.edit(r)
			key := r.Jobs[0].Key

			// Straight to the handler: 200, one result, Err set.
			cas := cache.NewMemStore()
			body, err := json.Marshal(workRequest(r))
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			fleet.NewWorker(cas, 1).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/work", bytes.NewReader(body)))
			var resp fleet.WorkResponse
			if rec.Code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 1 {
				t.Fatalf("response %s (%v), want one result", rec.Body, err)
			}
			res := resp.Results[0]
			if res.Key != key || res.Filled != valid || (res.Err == "") != valid {
				t.Fatalf("result %+v, want filled=%v", res, valid)
			}
			if cache.Has(cas, key) != valid {
				t.Fatalf("store has the job's key: %v, want %v", cache.Has(cas, key), valid)
			}

			// Through the coordinator: a declined job goes to local
			// fallback, not to a requeue.
			cas = cache.NewMemStore()
			co := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, 1)})
			defer co.Close()
			if err := co.RunnerFor("t")(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			st := co.Stats()
			if st.Requeues != 0 || st.Dispatched != 1 {
				t.Fatalf("coordinator stats %+v, want 1 dispatched, 0 requeued", st)
			}
			if valid && st.Filled != 1 || !valid && st.LocalFallback != 1 {
				t.Fatalf("coordinator stats %+v, want the job filled=%v", st, valid)
			}
			if cache.Has(cas, key) != valid {
				t.Fatalf("store has the job's key: %v, want %v", cache.Has(cas, key), valid)
			}
		})
	}
}

// recordingStore remembers every key written through it.
type recordingStore struct {
	cache.Store
	mu   sync.Mutex
	keys map[string]bool
}

func (s *recordingStore) Put(key string, data []byte) error {
	s.mu.Lock()
	s.keys[key] = true
	s.mu.Unlock()
	return s.Store.Put(key, data)
}

// FuzzWorkRequest drives the worker's /v1/work handler with arbitrary
// bodies. Properties: no panic; a 200 carries exactly one JobResult
// per job, in job order; the unit keys written are exactly the keys of
// Filled results (AST keys for the request's own files aside).
func FuzzWorkRequest(f *testing.F) {
	base := capturedRun(f)
	valid, err := json.Marshal(workRequest(base))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, tc := range badJobs {
		r := oneJob(base)
		tc.edit(r)
		body, err := json.Marshal(workRequest(r))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		st := &recordingStore{Store: cache.NewMemStore(), keys: map[string]bool{}}
		rec := httptest.NewRecorder()
		// A deadline bounds traversal of an adversarial program: the
		// worker declines a job cut short as degraded.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/work", bytes.NewReader(body)).WithContext(ctx)
		fleet.NewWorker(st, 2).Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return
		}
		// The handler answered 200, so the body decodes the same way
		// here (a JSON value, trailing bytes ignored).
		var wreq fleet.WorkRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wreq); err != nil {
			t.Fatalf("handler accepted a body that does not decode: %v", err)
		}
		var resp fleet.WorkResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response: %v", err)
		}
		if len(resp.Results) != len(wreq.Jobs) {
			t.Fatalf("%d results for %d jobs", len(resp.Results), len(wreq.Jobs))
		}
		filled := map[string]bool{}
		for i, res := range resp.Results {
			if res.Key != wreq.Jobs[i].Key {
				t.Fatalf("result %d has key %q, job has %q", i, res.Key, wreq.Jobs[i].Key)
			}
			if res.Filled {
				filled[res.Key] = true
			}
		}
		for name, src := range wreq.Files {
			delete(st.keys, cache.ASTKey(name, cc.HashBytes([]byte(src))))
		}
		for key := range st.keys {
			if !filled[key] {
				t.Fatalf("key %q written for a job that is not filled", key)
			}
		}
		for key := range filled {
			if !st.keys[key] {
				t.Fatalf("job %q reported filled but not written", key)
			}
		}
	})
}
