package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/store"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// newServerAt builds a server over dir and serves it via httptest. The
// returned shutdown is idempotent; it is also registered as cleanup.
func newServerAt(t *testing.T, dir string, opts Options) (*httptest.Server, *Server, func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{LeasePoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, opts)
	ts := httptest.NewServer(s.Handler())
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			s.Drain(ctx)
			ts.Close()
			if err := st.Close(); err != nil {
				t.Errorf("closing store: %v", err)
			}
		})
	}
	t.Cleanup(shutdown)
	return ts, s, shutdown
}

func submit(t *testing.T, ts *httptest.Server, req SweepRequest) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil && resp.StatusCode < 400 {
		t.Fatalf("decoding submit response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, js
}

// waitDone polls the result endpoint until the job is done and returns the
// full result payload.
func waitDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var js JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("decoding result (HTTP %d): %v", resp.StatusCode, derr)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return js
		case http.StatusAccepted:
		default:
			t.Fatalf("result endpoint returned HTTP %d: %+v", resp.StatusCode, js)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s not done after %v: %+v", id, timeout, js)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCanonicalizeAndTicket(t *testing.T) {
	names := workload.Names()
	all, err := canonicalize(SweepRequest{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Benches) != len(names) || all.Windows != 3 || len(all.Schemes) != 1 || all.Schemes[0] != "baseline" {
		t.Fatalf("empty request canonicalized to %+v", all)
	}
	// The ticket is order- and duplicate-insensitive: equivalent requests
	// from different clients share one job.
	a, err := canonicalize(SweepRequest{Benches: []string{names[1], names[0], names[1]}, Windows: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalize(SweepRequest{Benches: []string{names[0], names[1]}, Windows: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ticketID(a) != ticketID(b) {
		t.Fatal("equivalent requests produced different tickets")
	}
	if ticketID(a) == ticketID(all) {
		t.Fatal("different requests produced the same ticket")
	}

	bad := []SweepRequest{
		{Benches: []string{"no-such-bench"}},
		{Schemes: []string{"no-such-scheme"}},
		{Windows: 10001},
		{Windows: -1},
		{Chaos: "panic:sm"},
		{DeadlineMs: -5},
	}
	for _, req := range bad {
		if _, err := canonicalize(req, 3); err == nil {
			t.Errorf("canonicalize accepted invalid request %+v", req)
		}
	}
}

func TestRunWithRetry(t *testing.T) {
	transient := &harness.RunError{Bench: "S2", Phase: harness.PhaseRun,
		Err: fmt.Errorf("boom: %w", harness.ErrWatchdog)}
	permanent := &harness.RunError{Bench: "S2", Phase: harness.PhaseSetup,
		Err: fmt.Errorf("bad: %w", harness.ErrBadConfig)}
	pol := RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	j := newJitter()

	// Transient failures retry up to Attempts, then succeed mid-way.
	calls := 0
	res, attempts, err := runWithRetry(context.Background(), pol, j,
		func(context.Context) (*sim.Result, error) {
			calls++
			if calls < 3 {
				return nil, transient
			}
			return &sim.Result{Cycles: 1, Instructions: 1}, nil
		})
	if err != nil || attempts != 3 || res == nil {
		t.Fatalf("transient retry: res=%v attempts=%d err=%v", res, attempts, err)
	}

	// Exhaustion returns the last transient error.
	calls = 0
	_, attempts, err = runWithRetry(context.Background(), pol, j,
		func(context.Context) (*sim.Result, error) { calls++; return nil, transient })
	if !errors.Is(err, harness.ErrWatchdog) || attempts != 3 || calls != 3 {
		t.Fatalf("exhaustion: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	// Deterministic failures never retry: re-running a pure function of
	// its inputs cannot change the answer.
	calls = 0
	_, attempts, err = runWithRetry(context.Background(), pol, j,
		func(context.Context) (*sim.Result, error) { calls++; return nil, permanent })
	if !errors.Is(err, harness.ErrBadConfig) || attempts != 1 || calls != 1 {
		t.Fatalf("permanent: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	// A cancelled context stops the backoff loop immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, attempts, err = runWithRetry(ctx, RetryPolicy{Attempts: 5, BaseDelay: time.Hour}, j,
		func(context.Context) (*sim.Result, error) { return nil, transient })
	if attempts != 1 || err == nil {
		t.Fatalf("cancelled backoff: attempts=%d err=%v", attempts, err)
	}
}

func TestSubmitRoundtripAndConcurrentDedup(t *testing.T) {
	names := workload.Names()
	ts, s, _ := newServerAt(t, t.TempDir(), Options{Windows: 2})
	req := SweepRequest{Benches: names[:2], Windows: 2}

	// The acceptance criterion: N clients concurrently requesting the same
	// sweep share one ticket and cost exactly one execution per point.
	const clients = 6
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, js := submit(t, ts, req)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("client %d: HTTP %d", i, code)
			}
			ids[i] = js.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("identical requests got different tickets: %v", ids)
		}
	}

	final := waitDone(t, ts, ids[0], 2*time.Minute)
	if len(final.Points) != 2 || final.Counts[PointOK] != 2 {
		t.Fatalf("final state %+v", final)
	}
	for _, p := range final.Points {
		if p.Result == nil || p.IPC <= 0 || p.Error != nil {
			t.Fatalf("point %s/%s incomplete: %+v", p.Bench, p.Scheme, p)
		}
	}
	if got := s.Executions(); got != 2 {
		t.Fatalf("%d clients × 2 points cost %d executions, want exactly 2", clients, got)
	}

	// Status endpoint agrees; stats expose the executions and store size.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	var js JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if js.State != StateDone {
		t.Fatalf("status endpoint: %+v", js)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Executions != 2 || stats.StoreEntries != 2 || stats.Jobs[StateDone] != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _, _ := newServerAt(t, t.TempDir(), Options{Windows: 2})
	for _, req := range []SweepRequest{
		{Benches: []string{"nope"}},
		{Schemes: []string{"nope"}},
		{Chaos: "bogus:1"},
	} {
		if code, _ := submit(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("invalid request %+v got HTTP %d, want 400", req, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body got HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/sweeps/sw-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ticket got HTTP %d, want 404", resp.StatusCode)
	}
}

func TestAdmissionControlQueueFull(t *testing.T) {
	// One worker, one queue slot, six distinct jobs submitted faster than
	// any can finish: by pigeonhole at least one submit must be turned
	// away with 429 + Retry-After. Backpressure is the client's signal.
	ts, _, _ := newServerAt(t, t.TempDir(), Options{Windows: 2, QueueDepth: 1, JobWorkers: 1})
	rejected := 0
	for w := 2; w <= 7; w++ {
		code, _ := submit(t, ts, SweepRequest{Benches: []string{"S2"}, Windows: w})
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("submit windows=%d: HTTP %d", w, code)
		}
	}
	if rejected == 0 {
		t.Fatal("6 instant submits through a 1-deep queue produced no 429")
	}

	// The 429 carries Retry-After.
	body, err := json.Marshal(SweepRequest{Benches: []string{"S2"}, Windows: 9})
	if err != nil {
		t.Fatal(err)
	}
	for {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After header")
			}
			return
		}
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			// Queue drained before we hit it again — the earlier 429
			// already proved admission control; accept and stop.
			return
		}
		t.Fatalf("unexpected HTTP %d", resp.StatusCode)
	}
}

func TestDeadlinePropagatesAndNeverRetries(t *testing.T) {
	ts, s, _ := newServerAt(t, t.TempDir(), Options{Windows: 2})
	// 50 windows is far more simulation than 1 ms allows: the deadline
	// must abort the run via sim.GPU.RunCtx, fail the point with kind
	// "deadline", and — a caller-owned failure — never retry.
	code, js := submit(t, ts, SweepRequest{Benches: []string{"S2"}, Windows: 50, DeadlineMs: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	final := waitDone(t, ts, js.ID, time.Minute)
	p := final.Points[0]
	if p.State != PointFailed || p.Error == nil {
		t.Fatalf("deadline point %+v", p)
	}
	if p.Error.Kind != "deadline" || p.Error.Transient || p.Attempts != 1 {
		t.Fatalf("deadline failure misclassified: %+v", p.Error)
	}
	if s.Executions() > 1 {
		t.Fatalf("deadline failure was retried (%d executions)", s.Executions())
	}
}

func TestDrainRejectsQueuedFinishesInflight(t *testing.T) {
	names := workload.Names()
	ts, s, _ := newServerAt(t, t.TempDir(), Options{Windows: 2, QueueDepth: 2, JobWorkers: 1})

	// Job A is big enough to still be running when we drain; B sits queued
	// behind the single worker.
	codeA, jsA := submit(t, ts, SweepRequest{Benches: names, Windows: 3})
	if codeA != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d", codeA)
	}
	codeB, jsB := submit(t, ts, SweepRequest{Benches: []string{"S2"}, Windows: 4})
	if codeB != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d", codeB)
	}

	repCh := make(chan DrainReport, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		repCh <- s.Drain(ctx)
	}()

	// While draining: not ready, and new submits are refused with the
	// resumable-ticket message.
	waitFor(t, 10*time.Second, func() bool { return s.draining.Load() })
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: HTTP %d, want 503", resp.StatusCode)
	}
	codeC, jsC := submit(t, ts, SweepRequest{Benches: []string{"S2"}, Windows: 5})
	if codeC != http.StatusServiceUnavailable || jsC.State != StateRejected {
		t.Fatalf("submit during drain: HTTP %d %+v", codeC, jsC)
	}

	rep := <-repCh
	if rep.TimedOut {
		t.Fatal("drain timed out waiting for the in-flight job")
	}
	// A (in-flight) finished and committed; B (queued) was rejected with a
	// resumable ticket. Which job the worker picked first is scheduling —
	// between them there must be exactly one of each terminal state.
	stateA, _, pointsA := getJob(s, jsA.ID).snapshot()
	stateB, reasonB, _ := getJob(s, jsB.ID).snapshot()
	if stateA != StateDone || stateB != StateRejected {
		t.Fatalf("after drain: A=%s B=%s, want done/rejected", stateA, stateB)
	}
	if !strings.Contains(reasonB, "resubmit") {
		t.Fatalf("rejected job carries no resume hint: %q", reasonB)
	}
	if rep.Rejected != 1 {
		t.Fatalf("drain rejected %d jobs, want 1", rep.Rejected)
	}
	for _, p := range pointsA {
		if p.State != PointOK {
			t.Fatalf("in-flight job lost point %s/%s: %+v", p.Bench, p.Scheme, p)
		}
	}
	// Liveness outlives readiness.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: HTTP %d", resp.StatusCode)
	}
}

func getJob(s *Server, id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRestartResumesFromStore(t *testing.T) {
	names := workload.Names()
	dir := t.TempDir()
	req := SweepRequest{Benches: names[:3], Windows: 2}

	ts1, s1, shutdown1 := newServerAt(t, dir, Options{Windows: 2})
	_, js := submit(t, ts1, req)
	first := waitDone(t, ts1, js.ID, 2*time.Minute)
	if s1.Executions() != 3 {
		t.Fatalf("first server executed %d points, want 3", s1.Executions())
	}
	shutdown1()

	// A restarted server over the same store directory serves the whole
	// sweep without a single simulation.
	ts2, s2, _ := newServerAt(t, dir, Options{Windows: 2})
	_, js2 := submit(t, ts2, req)
	if js2.ID != js.ID {
		t.Fatalf("restart changed the ticket: %s vs %s", js2.ID, js.ID)
	}
	second := waitDone(t, ts2, js2.ID, 2*time.Minute)
	if s2.Executions() != 0 {
		t.Fatalf("restarted server re-simulated %d completed points", s2.Executions())
	}
	for i, p := range second.Points {
		q := first.Points[i]
		if p.Bench != q.Bench || p.IPC != q.IPC {
			t.Fatalf("restart changed point %d: %+v vs %+v", i, p, q)
		}
	}
}

func TestStreamEmitsPointsThenDone(t *testing.T) {
	ts, _, _ := newServerAt(t, t.TempDir(), Options{Windows: 2})
	_, js := submit(t, ts, SweepRequest{Benches: []string{"S2"}, Windows: 2})

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + js.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	points, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); line {
		case "event: point":
			points++
		case "event: done":
			done = true
		}
		if done {
			break
		}
	}
	if points != 1 || !done {
		t.Fatalf("stream emitted %d point events, done=%v", points, done)
	}
}

func TestChaosThroughServerMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden sweep through the server in -short mode")
	}
	golden, err := check.LoadSnapshot("../check/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	names := workload.Names()
	victim := names[0]

	ts, _, _ := newServerAt(t, t.TempDir(), Options{
		Windows: 3, // golden capture length
		Retry:   RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	// One request, all benchmarks, one bench-scoped fault: the victim
	// panics deterministically; every other point must be bit-identical to
	// the golden snapshot even though chaos is armed in its config.
	code, js := submit(t, ts, SweepRequest{Chaos: "panic:sm:1000,bench:" + victim})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	final := waitDone(t, ts, js.ID, 5*time.Minute)
	if len(final.Points) != len(names) {
		t.Fatalf("%d points, want %d", len(final.Points), len(names))
	}
	for _, p := range final.Points {
		if p.Bench == victim {
			if p.State != PointFailed || p.Error == nil {
				t.Fatalf("victim %s did not fail: %+v", victim, p)
			}
			if p.Error.Kind != "panic" || !p.Error.Transient {
				t.Fatalf("victim failure misclassified: %+v", p.Error)
			}
			if p.Attempts != 2 {
				t.Fatalf("transient victim retried %d times, want the policy's 2", p.Attempts)
			}
			if !strings.Contains(p.Error.Message, "chaos: injected panic") {
				t.Fatalf("victim error lost the injected-panic message: %q", p.Error.Message)
			}
			continue
		}
		if p.State != PointOK || p.Result == nil {
			t.Fatalf("clean point %s failed: %+v", p.Bench, p)
		}
		want, ok := golden.Entries[p.Bench+"|baseline"]
		if !ok {
			t.Fatalf("golden snapshot has no entry for %s|baseline", p.Bench)
		}
		if got := check.MetricsOf(p.Result); got != want {
			t.Errorf("%s: metrics through the server diverged from golden\n  golden %+v\n  got    %+v",
				p.Bench, want, got)
		}
	}
}
