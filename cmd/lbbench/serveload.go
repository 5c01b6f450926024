package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/serve"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/stats"
	"github.com/linebacker-sim/linebacker/internal/store"
	"github.com/linebacker-sim/linebacker/internal/twin"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// The serve-mixed load shape. Every client is closed-loop: it sends its
// next request only after the previous one completed.
const (
	clients         = 2 // sweep clients, then estimate clients; also the connection cap
	estimateQueries = 10000
	fallbackQueries = 100
	resubmits       = 20
	serveWindows    = 3 // the server's default run length, used by estimates
)

var (
	// estimateBenches are the benches calibrated during set-up.
	estimateBenches = paperBenches
	schemePairs     = [][]string{{"baseline", "linebacker"}, {"pcal", "cerf"}, {"svc", "vc"}}
	sweepWindows    = []int{2, 3}
	// fallbackL1KB are calibrated cache sizes other than the base 48 KB:
	// the SWL and VTT axes are calibrated at the base size only, so any
	// of them combined with an SWL limit or a VTT cap is out of envelope.
	fallbackL1KB = []int{16, 32, 64, 96, 128, 192}
)

// rngFor derives an independent deterministic stream per use from the seed.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// sweepRequests lists phase A: 20 benches x 3 scheme pairs x 2 run
// lengths, 120 distinct requests covering 240 points, in seeded order.
func sweepRequests(seed uint64) []serve.SweepRequest {
	var out []serve.SweepRequest
	for _, w := range sweepWindows {
		for _, b := range workload.Names() {
			for _, pair := range schemePairs {
				out = append(out, serve.SweepRequest{Benches: []string{b}, Schemes: pair, Windows: w})
			}
		}
	}
	rngFor(seed, 1).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// estimateQuery is one phase-B query and the tier that must answer it.
type estimateQuery struct {
	req      serve.EstimateRequest
	fallback bool
}

// estimateRequests lists phase B: estimateQueries queries on the
// calibrated benches, of which fallbackQueries are distinct
// out-of-envelope cross-products (an SWL limit or a VTT cap at a
// non-base cache size) and the rest lie inside every model's envelope.
func estimateRequests(seed uint64, maxResident map[string]int, maxParts int) []estimateQuery {
	rng := rngFor(seed, 2)
	out := make([]estimateQuery, 0, estimateQueries)
	perBench := fallbackQueries / len(estimateBenches)
	for _, b := range estimateBenches {
		var cands []serve.EstimateRequest
		for _, kb := range fallbackL1KB {
			for lim := 1; lim <= maxResident[b]; lim++ {
				cands = append(cands, serve.EstimateRequest{Bench: b, L1KB: kb, SWLLimit: lim})
			}
			for parts := 1; parts <= maxParts; parts++ {
				cands = append(cands, serve.EstimateRequest{Bench: b, LB: true, L1KB: kb, VTTParts: parts})
			}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for _, c := range cands[:perBench] {
			out = append(out, estimateQuery{req: c, fallback: true})
		}
	}
	for len(out) < estimateQueries {
		b := estimateBenches[rng.IntN(len(estimateBenches))]
		var q serve.EstimateRequest
		switch rng.IntN(3) {
		case 0: // cache axis, either arm, anywhere between the 16 and 192 KB anchors
			q = serve.EstimateRequest{Bench: b, LB: rng.IntN(2) == 1, L1KB: 16 + rng.IntN(192-16+1)}
		case 1: // static CTA limit at the base cache size
			q = serve.EstimateRequest{Bench: b, SWLLimit: 1 + rng.IntN(maxResident[b])}
		default: // VTT partition cap at the base cache size
			q = serve.EstimateRequest{Bench: b, LB: true, VTTParts: 1 + rng.IntN(maxParts)}
		}
		out = append(out, estimateQuery{req: q})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// client is one HTTP view of the server, sharing a transport capped at
// `clients` connections.
type client struct {
	base     string
	http     *http.Client
	rejected atomic.Int64 // 429 and 5xx answers
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out. A refused
// (429) or failed (5xx) answer is counted and returned as an error.
func (c *client) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		c.rejected.Add(1)
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// sweep submits one request, follows its progress stream to the end and
// fetches the full result. wantSubmit is 202 for a new ticket and 200 for
// a known one.
func (c *client) sweep(req serve.SweepRequest, wantSubmit int) (serve.JobStatus, error) {
	var st serve.JobStatus
	code, err := c.do(http.MethodPost, "/v1/sweeps", req, &st)
	if err != nil {
		return st, err
	}
	if code != wantSubmit {
		return st, fmt.Errorf("submit %v: HTTP %d, want %d", req, code, wantSubmit)
	}
	resp, err := c.http.Get(c.base + "/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		return st, err
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, err
	}
	if !bytes.Contains(stream, []byte("event: done")) {
		return st, fmt.Errorf("stream of %s ended without a done event", st.ID)
	}
	var res serve.JobStatus
	code, err = c.do(http.MethodGet, "/v1/sweeps/"+st.ID+"/result", nil, &res)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: HTTP %d", st.ID, code)
	}
	return res, err
}

func (c *client) stats() (serve.Stats, error) {
	var st serve.Stats
	_, err := c.do(http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// closedLoop runs n operations on `clients` goroutines, each claiming the
// next operation index only after finishing its previous one.
func closedLoop(n int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				op(i)
			}
		}()
	}
	wg.Wait()
}

// serviceSample is one serve-mixed sample: a fresh store and server.
type serviceSample struct {
	dir string
	st  *store.Store
	srv *serve.Server
	ts  *httptest.Server
	c   *client

	sweeps   []serve.JobStatus // phase A results, in request order
	answers  []serve.EstimateResponse
	calS     []float64 // per-bench cold calibration latency
	sweepS   []float64
	estUs    []float64
	fallMs   []float64
	wall     time.Duration
	alloc    uint64
	setup    time.Duration
	calExecs int64
}

func (s *serviceSample) close() error {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.c != nil {
		s.c.close()
	}
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if rep := s.srv.Drain(ctx); rep.TimedOut {
			err = fmt.Errorf("server drain timed out")
		}
		cancel()
	}
	if s.st != nil {
		if cerr := s.st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// serveLoad holds the inputs every sample replays.
type serveLoad struct {
	sweeps    []serve.SweepRequest
	estimates []estimateQuery
	resubmit  []int // indexes into sweeps
}

func newServeLoad(seed uint64) serveLoad {
	cfg := harness.BenchConfig()
	maxRes := map[string]int{}
	for _, b := range estimateBenches {
		maxRes[b] = sim.MaxResidentCTAs(&cfg.GPU, mustKernel(b))
	}
	l := serveLoad{
		sweeps:    sweepRequests(seed),
		estimates: estimateRequests(seed, maxRes, cfg.LB.MaxPartitions),
	}
	l.resubmit = rngFor(seed, 3).Perm(len(l.sweeps))[:resubmits]
	return l
}

// runSample sets up a fresh store and server, calibrates the estimate
// benches, then runs phases A (sweeps), B (estimates) and C (resubmits).
// Failures are recorded on o; the sample is returned open so the caller
// can trace it, and must be closed.
func runSample(l serveLoad, o *outcome) *serviceSample {
	s := &serviceSample{}
	setupStart := time.Now()
	var err error
	if s.dir, err = os.MkdirTemp("", "lbbench-store-"); err != nil {
		o.fail("store dir: %v", err)
		return s
	}
	if s.st, err = store.Open(s.dir, store.Options{}); err != nil {
		o.fail("opening store: %v", err)
		return s
	}
	s.srv = serve.New(s.st, serve.Options{Twin: true})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.c = newClient(s.ts.URL)

	var mu sync.Mutex
	failf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		o.fail(format, args...)
	}
	closedLoop(len(estimateBenches), func(i int) {
		start := time.Now()
		var ans serve.EstimateResponse
		_, err := s.c.do(http.MethodPost, "/v1/estimate", serve.EstimateRequest{Bench: estimateBenches[i]}, &ans)
		d := time.Since(start).Seconds()
		mu.Lock()
		s.calS = append(s.calS, d)
		mu.Unlock()
		if err == nil && ans.Source != serve.SourceTwin {
			err = fmt.Errorf("base query answered by %q", ans.Source)
		}
		if err != nil {
			failf("calibrating %s: %v", estimateBenches[i], err)
		}
	})
	o.attempted += len(estimateBenches)
	s.setup = time.Since(setupStart)

	before, err := s.c.stats()
	if err != nil {
		o.fail("stats: %v", err)
		return s
	}
	s.calExecs = before.Executions

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	passStart := time.Now()

	// Phase A: cold sweeps.
	s.sweeps = make([]serve.JobStatus, len(l.sweeps))
	closedLoop(len(l.sweeps), func(i int) {
		start := time.Now()
		res, err := s.c.sweep(l.sweeps[i], http.StatusAccepted)
		d := time.Since(start)
		mu.Lock()
		s.sweepS = append(s.sweepS, d.Seconds())
		mu.Unlock()
		if err != nil {
			failf("sweep %v: %v", l.sweeps[i], err)
			return
		}
		s.sweeps[i] = res
	})
	afterA, errA := s.c.stats()

	// Phase B: estimates.
	s.answers = make([]serve.EstimateResponse, len(l.estimates))
	closedLoop(len(l.estimates), func(i int) {
		q := l.estimates[i]
		start := time.Now()
		_, err := s.c.do(http.MethodPost, "/v1/estimate", q.req, &s.answers[i])
		d := time.Since(start)
		mu.Lock()
		if q.fallback {
			s.fallMs = append(s.fallMs, float64(d)/1e6)
		} else {
			s.estUs = append(s.estUs, float64(d)/1e3)
		}
		mu.Unlock()
		if err == nil {
			err = checkAnswer(q, s.answers[i])
		}
		if err != nil {
			failf("estimate %+v: %v", q.req, err)
		}
	})
	afterB, errB := s.c.stats()

	// Phase C: resubmits of known tickets.
	closedLoop(len(l.resubmit), func(i int) {
		req := l.sweeps[l.resubmit[i]]
		if _, err := s.c.sweep(req, http.StatusOK); err != nil {
			failf("resubmit %v: %v", req, err)
		}
	})
	s.wall = time.Since(passStart)
	runtime.ReadMemStats(&m1)
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	afterC, errC := s.c.stats()
	o.attempted += len(l.sweeps) + len(l.estimates) + len(l.resubmit)

	for _, err := range []error{errA, errB, errC} {
		if err != nil {
			o.fail("stats: %v", err)
			return s
		}
	}
	points := 0
	for _, r := range l.sweeps {
		points += len(r.Benches) * len(r.Schemes)
	}
	for _, d := range []struct {
		phase     string
		from, to  serve.Stats
		wantExecs int64
	}{
		{"A", before, afterA, int64(points)},
		{"B", afterA, afterB, fallbackQueries},
		{"C", afterB, afterC, 0},
	} {
		if got := d.to.Executions - d.from.Executions; got != d.wantExecs {
			o.fail("phase %s ran %d simulations, want %d", d.phase, got, d.wantExecs)
		}
	}
	if afterC.Twin.Models != len(estimateBenches) {
		o.fail("%d twin models after the load, want %d: a fallback triggered calibration", afterC.Twin.Models, len(estimateBenches))
	}
	return s
}

// checkAnswer verifies an estimate came from the tier the query's
// envelope position demands.
func checkAnswer(q estimateQuery, a serve.EstimateResponse) error {
	switch {
	case q.fallback && (a.Source != serve.SourceSim || a.InEnvelope || a.Reason == ""):
		return fmt.Errorf("out-of-envelope query answered by %q (in_envelope %v, reason %q), want a simulation fallback", a.Source, a.InEnvelope, a.Reason)
	case !q.fallback && (a.Source != serve.SourceTwin || !a.InEnvelope || !(a.Lo <= a.IPC && a.IPC <= a.Hi)):
		return fmt.Errorf("in-envelope query answered by %q (in_envelope %v, band [%v, %v] around %v)", a.Source, a.InEnvelope, a.Lo, a.Hi, a.IPC)
	}
	return nil
}

// goldenSchemes maps the service's scheme specs onto golden.json's names.
var goldenSchemes = map[string]string{"baseline": "baseline", "linebacker": "lb"}

// sweepPoint names one phase-A point across samples.
type sweepPoint struct {
	windows       int
	bench, scheme string
}

// phaseAResults checks every phase-A point: completed, golden-equal where
// the snapshot covers it (3 windows, baseline or linebacker, seed 1 — the
// server always simulates seed 1), and equal to the first sample's result.
func phaseAResults(l serveLoad, s *serviceSample, golden *check.Snapshot, first map[sweepPoint]*sim.Result, o *outcome) map[sweepPoint]*sim.Result {
	got := map[sweepPoint]*sim.Result{}
	for i, job := range s.sweeps {
		if job.ID == "" {
			continue // failed, already counted
		}
		for _, p := range job.Points {
			key := sweepPoint{l.sweeps[i].Windows, p.Bench, p.Scheme}
			if p.State != serve.PointOK || p.Result == nil {
				o.fail("sweep point %v: state %s", key, p.State)
				continue
			}
			got[key] = p.Result
			if want, ok := first[key]; ok && !sameResult(p.Result, want) {
				o.fail("sweep point %v differs from the first sample's result", key)
			}
			scheme, covered := goldenSchemes[p.Scheme]
			if key.windows != golden.Windows || !covered {
				continue
			}
			gk := p.Bench + "|" + scheme
			if want, ok := golden.Entries[gk]; !ok || check.MetricsOf(p.Result) != want {
				o.fail("sweep point %v differs from golden snapshot entry %q", key, gk)
			}
		}
	}
	return got
}

// runServe measures serve-mixed: each sample sets up a fresh store and
// server (set-up time), then runs the three phases (wall time).
func runServe(ctx context.Context, e *env) *outcome {
	o := newOutcome(wServe)
	l := newServeLoad(e.seed)
	var first map[sweepPoint]*sim.Result
	var sweepS, estUs, fallMs, calS []float64
	var rejected, calExecs int64
	var last *serviceSample
	var lastResults map[sweepPoint]*sim.Result
	measureStart := time.Now()
	for o.passes == 0 || time.Since(measureStart) < e.seconds {
		if last != nil {
			if err := last.close(); err != nil {
				o.fail("closing sample: %v", err)
			}
		}
		failedBefore := o.failed
		s := runSample(l, o)
		last = s
		o.passes++
		if s.c != nil {
			rejected += s.c.rejected.Load()
		}
		results := phaseAResults(l, s, e.golden, first, o)
		if first == nil {
			first, calExecs = results, s.calExecs
		} else if s.calExecs != calExecs {
			o.fail("sample %d: calibration ran %d simulations, the first sample %d", o.passes, s.calExecs, calExecs)
		}
		lastResults = results
		if o.failed > failedBefore {
			break
		}
		var instr int64
		for _, k := range s.st.Keys() {
			if res, ok := s.st.Get(k); ok && !strings.HasPrefix(k, "twin|") {
				instr += res.Instructions
			}
		}
		o.e2e["setup_s"] = append(o.e2e["setup_s"], s.setup.Seconds())
		o.e2e["wall_s"] = append(o.e2e["wall_s"], s.wall.Seconds())
		o.e2e["sim_kips"] = append(o.e2e["sim_kips"], float64(instr)/s.wall.Seconds()/1e3)
		o.e2e["alloc_mb"] = append(o.e2e["alloc_mb"], float64(s.alloc)/1e6)
		sweepS = append(sweepS, s.sweepS...)
		estUs = append(estUs, s.estUs...)
		fallMs = append(fallMs, s.fallMs...)
		calS = append(calS, s.calS...)
	}
	defer func() {
		if err := last.close(); err != nil {
			o.fail("closing sample: %v", err)
		}
	}()
	if !e.traced || o.failed > 0 {
		return o
	}

	o.layer = modelMetrics(sortedResults(lastResults), serveGain(lastResults))
	stats, err := last.c.stats()
	if err != nil {
		o.fail("stats: %v", err)
		return o
	}
	o.layer["serve.executions"] = float64(stats.Executions)
	o.layer["serve.twin_hits"] = float64(stats.Twin.Hits)
	o.layer["serve.fallbacks"] = float64(stats.Twin.Fallbacks)
	o.layer["serve.rejected"] = float64(rejected)
	o.layer["twin.calibrate_s"] = median(calS)
	o.layer["serve.estimate_p50_us"] = median(estUs)
	o.layer["serve.fallback_p50_ms"] = median(fallMs)
	o.layer["serve.sweep_p50_s"] = median(sweepS)
	p90, err := percentile(sweepS, 0.9)
	if err != nil {
		o.fail("sweep p90: %v", err)
	}
	o.layer["serve.sweep_p90_s"] = p90
	traceStore(last, o)
	traceTwin(ctx, l, last, o)
	return o
}

// traceStore replays the phase-A commit stream into a fresh store, timing
// each Put, then times reopening it.
func traceStore(s *serviceSample, o *outcome) {
	dir, err := os.MkdirTemp("", "lbbench-replay-")
	if err != nil {
		o.fail("replay dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		o.fail("replay store: %v", err)
		return
	}
	var putMs []float64
	for _, k := range s.st.Keys() {
		if !strings.HasPrefix(k, "serve|") {
			continue
		}
		res, _ := s.st.Get(k)
		start := time.Now()
		err := st.Put(k, res)
		putMs = append(putMs, float64(time.Since(start))/1e6)
		if err != nil {
			o.fail("replay put: %v", err)
		}
	}
	o.attempted += len(putMs)
	if err := st.Close(); err != nil {
		o.fail("closing replay store: %v", err)
	}
	start := time.Now()
	st, err = store.Open(dir, store.Options{})
	reopen := time.Since(start)
	if err != nil {
		o.fail("reopening replay store: %v", err)
		return
	}
	if st.Len() != len(putMs) {
		o.fail("reopened store holds %d records, want %d", st.Len(), len(putMs))
	}
	if err := st.Close(); err != nil {
		o.fail("closing replay store: %v", err)
	}
	o.layer["store.put_p50_ms"] = median(putMs)
	p90, err := percentile(putMs, 0.9)
	if err != nil {
		o.fail("put p90: %v", err)
	}
	o.layer["store.put_p90_ms"] = p90
	o.layer["store.reopen_ms"] = float64(reopen) / 1e6
}

// traceTwin rebuilds the estimate benches' models from the sample's store
// (every anchor is a store hit, so nothing simulates), checks they give
// the answers the server gave, and times Model.Estimate over the
// in-envelope queries.
func traceTwin(ctx context.Context, l serveLoad, s *serviceSample, o *outcome) {
	r := harness.NewRunner(harness.BenchConfig(), serveWindows)
	r.AttachStore(s.st)
	models := map[string]*twin.Model{}
	for _, b := range estimateBenches {
		m, err := twin.Calibrate(ctx, r, b, twin.Options{})
		if err != nil {
			o.fail("rebuilding %s model: %v", b, err)
			return
		}
		models[b] = m
	}
	if n := r.Executions(); n != 0 {
		o.fail("rebuilding models from the store simulated %d points, want 0", n)
	}
	var qs []twin.Query
	var ms []*twin.Model
	for i, q := range l.estimates {
		if q.fallback {
			continue
		}
		tq := twin.Query{L1Bytes: q.req.L1KB * 1024, SWLLimit: q.req.SWLLimit, LB: q.req.LB, VTTParts: q.req.VTTParts}
		m := models[q.req.Bench]
		est, a := m.Estimate(tq), s.answers[i]
		if !est.InEnvelope || est.IPC != a.IPC || est.Lo != a.Lo || est.Hi != a.Hi {
			o.fail("model estimate for %+v differs from the server's answer", q.req)
		}
		qs, ms = append(qs, tq), append(ms, m)
	}
	o.attempted += len(qs)
	var perCall []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i, q := range qs {
			ms[i].Estimate(q)
		}
		perCall = append(perCall, float64(time.Since(start))/float64(len(qs)))
	}
	o.layer["twin.estimate_ns"] = median(perCall)
}

// sortedResults lists results in a fixed order.
func sortedResults(m map[sweepPoint]*sim.Result) []*sim.Result {
	var out []*sim.Result
	for _, w := range sweepWindows {
		for _, b := range workload.Names() {
			for _, pair := range schemePairs {
				for _, sc := range pair {
					if r, ok := m[sweepPoint{w, b, sc}]; ok {
						out = append(out, r)
					}
				}
			}
		}
	}
	return out
}

// serveGain is the geomean Linebacker-over-baseline IPC across phase A's
// baseline+linebacker requests.
func serveGain(m map[sweepPoint]*sim.Result) float64 {
	var ratios []float64
	for _, w := range sweepWindows {
		for _, b := range workload.Names() {
			base, okB := m[sweepPoint{w, b, "baseline"}]
			lb, okL := m[sweepPoint{w, b, "linebacker"}]
			if okB && okL {
				ratios = append(ratios, lb.IPC()/base.IPC())
			}
		}
	}
	return stats.GeoMean(ratios)
}
