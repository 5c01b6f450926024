package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	linebacker "github.com/linebacker-sim/linebacker"
	"github.com/linebacker-sim/linebacker/internal/chaos"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/store"
	"github.com/linebacker-sim/linebacker/internal/twin"
)

// newScheme resolves a policy spec through the public registry, so the
// service accepts exactly the scheme names the CLIs accept.
func newScheme(spec string) (sim.Policy, error) { return linebacker.NewScheme(spec) }

// Options configures a Server. The zero value is usable: fast 4-SM
// experiment machine, 3-window runs, a small queue, default retry.
type Options struct {
	// Windows is the run length applied when a request omits windows
	// (default 3 — the acceptance-test run length).
	Windows int
	// QueueDepth bounds the admission queue; a submit that finds the queue
	// full is rejected with 429 + Retry-After instead of queueing unbounded
	// work behind a bounded simulator (default 4).
	QueueDepth int
	// JobWorkers is how many jobs execute concurrently (default 2). Points
	// within a job already fan out through the runner's bounded sweep pool,
	// so this bounds head-of-line blocking, not CPU use.
	JobWorkers int
	// Retry is the transient-failure retry policy.
	Retry RetryPolicy
	// Seed seeds the backoff jitter PRNG (default 1).
	Seed uint64
	// RunTimeout bounds one simulation's wall-clock time (0 = none).
	RunTimeout time.Duration
	// WatchdogTick enables the no-forward-progress watchdog (0 = off).
	WatchdogTick time.Duration
	// Twin enables the analytical cheap-query tier: /v1/estimate answers
	// in-envelope from calibrated models, and mode:"twin" sweeps answer
	// twin-eligible points without simulating. Disabled at the zero value —
	// out-of-envelope queries and all sweeps then run the full simulator.
	Twin bool
	// TwinCal sets the calibration axes and band parameters (zero value:
	// twin defaults).
	TwinCal twin.Options
}

func (o Options) withDefaults() Options {
	if o.Windows <= 0 {
		o.Windows = 3
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// Server executes sweep jobs over a persistent result store. It owns one
// store-backed harness.Runner per (windows, paper) pair: a runner has one
// run length, and the harness keys every point by it, so runs of different
// window counts never alias one store entry.
type Server struct {
	opts  Options
	store *store.Store
	jit   *jitter

	mu      sync.Mutex
	runners map[runnerKey]*harness.Runner
	jobs    map[string]*Job
	twins   map[runnerKey]*twin.Cache

	queue    chan *Job
	quit     chan struct{}
	quitOnce sync.Once
	workers  sync.WaitGroup
	inflight sync.WaitGroup
	draining atomic.Bool

	// estSem bounds how many /v1/estimate requests may be touching the
	// simulator (calibration or fallback) at once.
	estSem        chan struct{}
	twinHits      atomic.Int64
	twinFallbacks atomic.Int64
}

type runnerKey struct {
	windows int
	paper   bool
}

// New builds a server over the store and starts its job workers. The
// caller owns the store's lifetime; the server never closes it.
func New(st *store.Store, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		store:   st,
		jit:     newJitter(opts.Seed),
		runners: map[runnerKey]*harness.Runner{},
		jobs:    map[string]*Job{},
		twins:   map[runnerKey]*twin.Cache{},
		queue:   make(chan *Job, opts.QueueDepth),
		quit:    make(chan struct{}),
		estSem:  make(chan struct{}, opts.JobWorkers),
	}
	for i := 0; i < opts.JobWorkers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				select {
				case <-s.quit:
					return
				case job := <-s.queue:
					s.runJob(job)
				}
			}
		}()
	}
	return s
}

// runnerFor returns (lazily building) the runner for one machine shape.
func (s *Server) runnerFor(windows int, paper bool) *harness.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := runnerKey{windows, paper}
	if r, ok := s.runners[k]; ok {
		return r
	}
	cfg := harness.BenchConfig()
	if paper {
		cfg = harness.PaperConfig()
	}
	r := harness.NewRunner(cfg, windows)
	r.Timeout = s.opts.RunTimeout
	r.WatchdogTick = s.opts.WatchdogTick
	r.AttachStore(s.store)
	s.runners[k] = r
	return r
}

// Executions sums actual simulations across all runners — what the
// dedup/crash-recovery acceptance tests assert on.
func (s *Server) Executions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, r := range s.runners {
		total += r.Executions()
	}
	return total
}

// runJob executes every point of one admitted job. In-flight jobs always
// run to completion — drain waits for them, and every finished point is
// already committed to the store, so even a job cut short by process death
// resumes from its last completed point.
func (s *Server) runJob(job *Job) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	job.setState(StateRunning, "")
	r := s.runnerFor(job.Req.Windows, job.Req.Paper)

	_, _, points := job.snapshot()
	var wg sync.WaitGroup
	for i := range points {
		wg.Add(1)
		go func(i int, p Point) {
			defer wg.Done()
			s.runPoint(r, job, i, p)
		}(i, points[i])
	}
	wg.Wait()
	job.setState(StateDone, "")
}

// runPoint executes one (bench, scheme) cell under the retry policy and
// publishes its outcome on the job.
func (s *Server) runPoint(r *harness.Runner, job *Job, i int, p Point) {
	p.State = PointRunning
	job.setPoint(i, p)

	fail := func(attempts int, err error) {
		p.State, p.Attempts = PointFailed, attempts
		pe := &PointError{Message: err.Error(), Kind: harness.FailureKind(err),
			Transient: harness.Transient(err)}
		var re *harness.RunError
		if errors.As(err, &re) {
			pe.Phase, pe.Cycle = re.Phase, re.Cycle
		}
		p.Error = pe
		job.setPoint(i, p)
	}

	cfg := r.Cfg
	ch, err := chaos.ParseSpec(job.Req.Chaos)
	if err != nil { // validated at submit; defensive
		fail(0, err)
		return
	}
	cfg.Chaos = ch
	pol, err := newScheme(p.Scheme)
	if err != nil { // validated at submit; defensive
		fail(0, err)
		return
	}

	ctx := context.Background()
	if job.Req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(job.Req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	// mode:"twin" jobs try the analytical tier first; anything it cannot
	// answer in-envelope falls through to the simulator below.
	if s.tryTwinPoint(ctx, r, job, i, p) {
		return
	}
	cfgKey := "serve|" + p.Scheme
	res, attempts, err := runWithRetry(ctx, s.opts.Retry, s.jit,
		func(ctx context.Context) (*sim.Result, error) {
			return r.RunCfg(ctx, cfg, cfgKey, p.Bench, pol)
		})
	if err != nil {
		fail(attempts, err)
		return
	}
	p.State, p.Attempts, p.Result, p.IPC = PointOK, attempts, res, res.IPC()
	p.Source = SourceSim
	p.Error = nil
	job.setPoint(i, p)
}

// DrainReport summarises a graceful shutdown.
type DrainReport struct {
	// Rejected counts queued-but-unstarted jobs turned away with their
	// resumable tickets.
	Rejected int `json:"rejected"`
	// TimedOut is true when ctx expired before every in-flight job
	// finished; completed points are committed either way.
	TimedOut bool `json:"timed_out"`
}

// Drain gracefully shuts the server down: new submits are refused (503),
// queued jobs are rejected with resumable tickets — the store already
// holds every completed point, so resubmitting the same request after a
// restart only pays for what never ran — and in-flight jobs are given
// until ctx expires to finish and commit.
func (s *Server) Drain(ctx context.Context) DrainReport {
	s.draining.Store(true)
	s.quitOnce.Do(func() { close(s.quit) })

	var rep DrainReport
	for {
		select {
		case job := <-s.queue:
			job.setState(StateRejected,
				"server draining; completed points are stored — resubmit the same request to resume")
			rep.Rejected++
			continue
		default:
		}
		break
	}

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		rep.TimedOut = true
	}
	return rep
}

// Handler returns the HTTP API:
//
//	POST /v1/sweeps             submit (202 accepted / 200 already known /
//	                            400 invalid / 429 queue full / 503 draining)
//	GET  /v1/sweeps/{id}        status summary
//	GET  /v1/sweeps/{id}/result full results (202 until done)
//	GET  /v1/sweeps/{id}/stream SSE progress events
//	POST /v1/estimate           one configuration query: twin when
//	                            in-envelope, simulation fallback otherwise
//	GET  /v1/stats              executions, store, job and twin counters
//	GET  /healthz               liveness (always 200)
//	GET  /readyz                readiness (503 while draining or store-sick)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// JobStatus is the wire shape of a job summary.
type JobStatus struct {
	ID     string         `json:"id"`
	State  string         `json:"state"`
	Reason string         `json:"reason,omitempty"`
	Counts map[string]int `json:"counts"`
	Points []Point        `json:"points,omitempty"`
}

func statusOf(j *Job, withPoints bool) JobStatus {
	state, reason, points := j.snapshot()
	out := JobStatus{ID: j.ID, State: state, Reason: reason, Counts: counts(points)}
	if withPoints {
		out.Points = points
	}
	return out
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	canon, err := canonicalize(req, s.opts.Windows)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := ticketID(canon)

	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, JobStatus{
			ID: id, State: StateRejected,
			Reason: "server draining; resubmit this request after restart — completed points are stored",
		})
		return
	}

	s.mu.Lock()
	if existing, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, statusOf(existing, false))
		return
	}
	job := newJob(id, canon)
	select {
	case s.queue <- job:
		s.jobs[id] = job
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, statusOf(job, false))
	default:
		s.mu.Unlock()
		// Admission control: the queue is the only unbounded-growth point
		// of a long-lived service, so it is bounded and overflow is the
		// client's signal to back off — not the server's signal to buffer.
		w.Header().Set("Retry-After", strconv.Itoa(1+s.opts.QueueDepth))
		writeError(w, http.StatusTooManyRequests, "sweep queue full; retry later")
	}
}

// lookup resolves {id}; a miss writes 404 and returns nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown sweep "+id)
	}
	return job
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.lookup(w, r); job != nil {
		writeJSON(w, http.StatusOK, statusOf(job, false))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	switch state, _, _ := job.snapshot(); state {
	case StateDone:
		writeJSON(w, http.StatusOK, statusOf(job, true))
	case StateRejected:
		writeJSON(w, http.StatusConflict, statusOf(job, false))
	default:
		writeJSON(w, http.StatusAccepted, statusOf(job, false))
	}
}

// handleStream emits server-sent events: one "point" event per completed
// point, then a final "done" event with the job summary.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	sent := map[int]bool{}
	emit := func() bool {
		state, _, points := job.snapshot()
		for i, p := range points {
			if sent[i] || (p.State != PointOK && p.State != PointFailed) {
				continue
			}
			sent[i] = true
			// Stream frames are compact: full results stay on the
			// /result endpoint.
			p.Result = nil
			data, err := json.Marshal(p)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: point\ndata: %s\n\n", data)
		}
		if state == StateDone || state == StateRejected {
			data, err := json.Marshal(statusOf(job, false))
			if err == nil {
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			}
			fl.Flush()
			return true
		}
		fl.Flush()
		return false
	}

	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		if emit() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
		case <-ticker.C:
		}
	}
}

// Stats is the wire shape of /v1/stats.
type Stats struct {
	Executions   int64            `json:"executions"`
	StoreEntries int              `json:"store_entries"`
	StoreLoad    store.LoadReport `json:"store_load"`
	Jobs         map[string]int   `json:"jobs"`
	Draining     bool             `json:"draining"`
	Twin         TwinStats        `json:"twin"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := map[string]int{}
	for _, j := range s.jobs {
		state, _, _ := j.snapshot()
		jobs[state]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Stats{
		Executions:   s.Executions(),
		StoreEntries: s.store.Len(),
		StoreLoad:    s.store.Report(),
		Jobs:         jobs,
		Draining:     s.draining.Load(),
		Twin: TwinStats{
			Enabled:   s.opts.Twin,
			Hits:      s.twinHits.Load(),
			Fallbacks: s.twinFallbacks.Load(),
			Models:    s.twinModels(),
		},
	})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if err := s.store.Err(); err != nil {
		// A sticky store write error means results can no longer be made
		// durable: stop admitting traffic rather than serve amnesia.
		writeError(w, http.StatusServiceUnavailable, "store unhealthy: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(data) //lbvet:errok — client gone mid-response; nothing to do
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
