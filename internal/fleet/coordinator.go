package fleet

// The fleet coordinator: turns each analysis phase's cache-miss units
// into worker jobs (DESIGN.md §15). Scheduling is deliberately plain:
//
//   - a bounded priority queue ordered largest-unit-first (LPT —
//     longest processing time — keeps the stragglers off the critical
//     path), FIFO among equals;
//   - per-tenant quotas at admission, so one tenant's huge tree
//     cannot starve the fleet (overflow runs on the coordinator's own
//     CPU, which is exactly where it ran before the fleet existed);
//   - one in-flight batch per worker, pulled from the queue — workers
//     self-balance by pull rate, and batching amortizes the source
//     tree upload across every job in the batch;
//   - transport failures requeue the batch's jobs with a bounded
//     retry budget; jobs that exhaust it resolve unfilled and run
//     locally. Nothing is ever lost and nothing partial is ever
//     committed — workers only write complete entries.

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/mc"
)

// Config configures a Coordinator. Workers is the only required
// field.
type Config struct {
	// Workers lists worker base URLs (e.g. "http://host:7779").
	Workers []string
	// Client is the HTTP client for worker calls; nil uses a client
	// with a 5-minute timeout.
	Client *http.Client
	// BatchSize bounds jobs per worker request; 0 means 16.
	BatchSize int
	// QueueDepth bounds the job queue; 0 means 1024. Jobs refused at
	// a full queue run locally.
	QueueDepth int
	// TenantQuota bounds one tenant's queued-plus-inflight jobs; 0
	// means no per-tenant bound beyond the queue itself.
	TenantQuota int
	// Retries is the per-job requeue budget after transport failures;
	// 0 means 2.
	Retries int
}

// Coordinator schedules unit jobs onto workers. Create with
// NewCoordinator, wire into an analyzer via RunnerFor, and Close when
// done.
type Coordinator struct {
	cfg    Config
	client *http.Client

	mu         sync.Mutex
	cond       *sync.Cond
	queue      jobQueue
	seq        int64
	tenantLoad map[string]int
	closed     bool
	loops      sync.WaitGroup

	dispatched    atomic.Int64
	filled        atomic.Int64
	requeues      atomic.Int64
	refused       atomic.Int64
	localFallback atomic.Int64
	batches       atomic.Int64
}

// job is one queued unit job; run ties it back to the UnitRunner call
// that admitted it.
type job struct {
	run    *runState
	uj     mc.UnitJob
	weight int   // len(Funcs): LPT priority
	seq    int64 // admission order: FIFO among equal weights
	tries  int
}

// runState is what every job of one UnitRunner call shares; post
// sends it once per batch.
type runState struct {
	ctx      context.Context
	tenant   string
	treeFP   string
	files    map[string]string
	opts     mc.Options
	checkers []string
	marks    []mc.MarkEvent
	wg       sync.WaitGroup
}

// NewCoordinator starts one dispatch loop per configured worker.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	c := &Coordinator{cfg: cfg, client: cfg.Client, tenantLoad: map[string]int{}}
	if c.client == nil {
		c.client = &http.Client{Timeout: 5 * time.Minute}
	}
	c.cond = sync.NewCond(&c.mu)
	for _, url := range cfg.Workers {
		c.loops.Add(1)
		go c.workerLoop(url)
	}
	return c
}

// Close stops the dispatch loops; queued jobs resolve unfilled (their
// runs fall back to local execution).
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	drained := c.queue
	c.queue = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, j := range drained {
		c.resolve(j, false)
	}
	c.loops.Wait()
}

// Stats snapshots the fleet counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Dispatched:    c.dispatched.Load(),
		Filled:        c.filled.Load(),
		Requeues:      c.requeues.Load(),
		Refused:       c.refused.Load(),
		LocalFallback: c.localFallback.Load(),
		Batches:       c.batches.Load(),
		Workers:       len(c.cfg.Workers),
	}
}

// RunnerFor returns an mc.UnitRunner that schedules the run's jobs on
// the fleet for the given tenant and blocks until every admitted job
// is resolved (filled in the shared store, or given up for local
// execution). Jobs refused at admission — full queue, tenant over
// quota, coordinator closed — are simply not admitted; the analyzer
// runs them locally, so refusal is back-pressure, not failure.
func (c *Coordinator) RunnerFor(tenant string) mc.UnitRunner {
	return func(ctx context.Context, run *mc.UnitRun) error {
		rs := &runState{
			ctx: ctx, tenant: tenant,
			treeFP: run.TreeFP, files: run.Files, opts: run.Options,
			checkers: run.Checkers, marks: run.Marks,
		}
		admitted := 0
		c.mu.Lock()
		for _, uj := range run.Jobs {
			// With no workers there is nobody to resolve a job; refuse
			// everything rather than block the run forever.
			if c.closed || len(c.cfg.Workers) == 0 || len(c.queue) >= c.cfg.QueueDepth ||
				(c.cfg.TenantQuota > 0 && c.tenantLoad[tenant] >= c.cfg.TenantQuota) {
				c.refused.Add(1)
				continue
			}
			c.tenantLoad[tenant]++
			c.seq++
			rs.wg.Add(1)
			heap.Push(&c.queue, &job{run: rs, uj: uj, weight: len(uj.Funcs), seq: c.seq})
			admitted++
			c.dispatched.Add(1)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		if admitted == 0 {
			return nil
		}
		done := make(chan struct{})
		go func() { rs.wg.Wait(); close(done) }()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			// Outstanding jobs drain as no-ops: the dispatch loops see
			// the dead run context and resolve them without sending.
			return ctx.Err()
		}
	}
}

// resolve finishes one job: release its tenant slot and wake its run.
func (c *Coordinator) resolve(j *job, filled bool) {
	c.mu.Lock()
	c.tenantLoad[j.run.tenant]--
	if c.tenantLoad[j.run.tenant] <= 0 {
		delete(c.tenantLoad, j.run.tenant)
	}
	c.mu.Unlock()
	if filled {
		c.filled.Add(1)
	}
	j.run.wg.Done()
}

// nextBatch blocks for work, then pops up to BatchSize jobs from one
// run (a batch shares a single tree upload, so jobs from different
// runs never mix). Returns nil when the coordinator is closed.
func (c *Coordinator) nextBatch() []*job {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil
		}
		if len(c.queue) == 0 {
			c.cond.Wait()
			continue
		}
		first := heap.Pop(&c.queue).(*job)
		batch := []*job{first}
		for len(batch) < c.cfg.BatchSize && len(c.queue) > 0 && c.queue[0].run == first.run {
			batch = append(batch, heap.Pop(&c.queue).(*job))
		}
		return batch
	}
}

// requeue re-admits a job after a transport failure, or resolves it
// for local fallback once its retry budget is spent.
func (c *Coordinator) requeue(j *job) {
	j.tries++
	if j.tries > c.cfg.Retries {
		c.localFallback.Add(1)
		c.resolve(j, false)
		return
	}
	c.requeues.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.resolve(j, false)
		return
	}
	c.seq++
	j.seq = c.seq
	heap.Push(&c.queue, j)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// workerLoop is one worker's dispatch loop: pull a batch, post it,
// settle the results. A dead worker keeps pulling and failing until
// jobs exhaust their retries on it or land on a healthier peer —
// with one in-flight batch per worker, a slow or dead worker
// naturally pulls less.
func (c *Coordinator) workerLoop(url string) {
	defer c.loops.Done()
	for {
		batch := c.nextBatch()
		if batch == nil {
			return
		}
		run := batch[0].run
		if run.ctx.Err() != nil {
			for _, j := range batch {
				c.resolve(j, false)
			}
			continue
		}
		c.batches.Add(1)
		results, err := c.post(url, run, batch)
		if err != nil {
			// Transport failure — worker loss mid-unit included. The
			// worker never responded, so nothing it half-did is
			// visible: entries are committed to the shared store
			// before the response, and incomplete runs are never
			// committed at all. Requeue the whole batch.
			for _, j := range batch {
				c.requeue(j)
			}
			continue
		}
		for _, j := range batch {
			res, ok := results[j.uj.Key]
			switch {
			case ok && res.Filled:
				c.resolve(j, true)
			case ok:
				// The job ran and was declined (degraded, checker
				// failure, a job the worker cannot run): retrying
				// reproduces the outcome, so send it straight to the
				// local fallback path.
				c.localFallback.Add(1)
				c.resolve(j, false)
			default:
				// The worker answered but skipped the job: treat like
				// a transport failure.
				c.requeue(j)
			}
		}
	}
}

// post sends one batch to one worker and indexes the results by key.
func (c *Coordinator) post(url string, run *runState, batch []*job) (map[string]JobResult, error) {
	wreq := WorkRequest{
		TreeFP: run.treeFP, Files: run.files, Options: run.opts,
		Checkers: run.checkers, Marks: run.marks,
	}
	for _, j := range batch {
		wreq.Jobs = append(wreq.Jobs, j.uj)
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(run.ctx, http.MethodPost, url+"/v1/work", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker %s: HTTP %d", url, resp.StatusCode)
	}
	var wresp WorkResponse
	if err := json.NewDecoder(resp.Body).Decode(&wresp); err != nil {
		return nil, err
	}
	out := make(map[string]JobResult, len(wresp.Results))
	for _, res := range wresp.Results {
		out[res.Key] = res
	}
	return out, nil
}

// jobQueue is a max-heap by unit weight (LPT), admission order among
// equals.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].weight != q[j].weight {
		return q[i].weight > q[j].weight
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}
