package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/twin"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// EstimateRequest is the POST /v1/estimate body: one configuration
// question about one benchmark, on the twin's calibrated axes.
type EstimateRequest struct {
	// Bench is a Table 2 benchmark code (required).
	Bench string `json:"bench"`
	// LB selects the Linebacker arm (default: baseline).
	LB bool `json:"lb,omitempty"`
	// L1KB overrides the L1 capacity in KB (0 = the base configuration).
	L1KB int `json:"l1_kb,omitempty"`
	// SWLLimit asks for a static CTA limit (baseline arm only).
	SWLLimit int `json:"swl_limit,omitempty"`
	// VTTParts overrides Linebacker's VTT partition cap (LB arm only).
	VTTParts int `json:"vtt_parts,omitempty"`
	// Windows / Paper select the machine, exactly as on sweep requests.
	Windows int  `json:"windows,omitempty"`
	Paper   bool `json:"paper,omitempty"`
}

// EstimateResponse is the answer. Source says how it was produced:
// "twin" carries a confidence band; "sim" is ground truth from a full
// cycle-level run (the fallback for out-of-envelope queries, and the only
// source when the twin tier is disabled). An out-of-envelope Reason is
// always reported, even after the fallback answered — the twin must never
// be quietly wrong, and never silently absent either.
type EstimateResponse struct {
	Bench      string  `json:"bench"`
	Source     string  `json:"source"`
	IPC        float64 `json:"ipc"`
	Lo         float64 `json:"lo,omitempty"`
	Hi         float64 `json:"hi,omitempty"`
	MissRate   float64 `json:"miss_rate,omitempty"`
	InEnvelope bool    `json:"in_envelope"`
	Reason     string  `json:"reason,omitempty"`
	Basis      string  `json:"basis,omitempty"`
}

// Estimate sources.
const (
	SourceTwin = "twin"
	SourceSim  = "sim"
)

// TwinStats are the cheap-query-tier counters in /v1/stats.
type TwinStats struct {
	// Enabled mirrors Options.Twin.
	Enabled bool `json:"enabled"`
	// Hits counts queries answered by a calibrated model, in-envelope.
	Hits int64 `json:"hits"`
	// Fallbacks counts queries answered by full simulation (out of
	// envelope, non-twin scheme, or twin tier disabled).
	Fallbacks int64 `json:"fallbacks"`
	// Models counts calibrated models currently cached across runners.
	Models int `json:"models"`
}

// twinFor returns (lazily building) the model cache paired with one
// runner. Calibration options ride Options.TwinCal.
func (s *Server) twinFor(k runnerKey) *twin.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.twins[k]
	if !ok {
		c = twin.NewCache(s.opts.TwinCal)
		s.twins[k] = c
	}
	return c
}

// twinModels sums cached models across runners for /v1/stats.
func (s *Server) twinModels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, c := range s.twins {
		total += c.Len()
	}
	return total
}

// twinQuery maps a sweep scheme spec onto the twin's calibrated arms.
// Only the two golden-grid arms are twin-answerable; anything else (pcal,
// swl:4, cerf, ...) reports false and stays on the simulator.
func twinQuery(scheme string) (twin.Query, bool) {
	switch scheme {
	case "baseline":
		return twin.Query{}, true
	case "linebacker", "lb":
		return twin.Query{LB: true}, true
	}
	return twin.Query{}, false
}

// validate checks the axes compose at all (the envelope check proper lives
// in the model; this rejects requests no calibration could ever answer).
func (er *EstimateRequest) validate() error {
	if _, ok := workload.ByName(er.Bench); !ok {
		return fmt.Errorf("unknown benchmark %q", er.Bench)
	}
	if er.L1KB < 0 || er.SWLLimit < 0 || er.VTTParts < 0 {
		return fmt.Errorf("negative axis value")
	}
	if er.SWLLimit > 0 && er.LB {
		return fmt.Errorf("swl_limit applies to the baseline arm only")
	}
	if er.VTTParts > 0 && !er.LB {
		return fmt.Errorf("vtt_parts requires lb: true")
	}
	if er.Windows < 0 || er.Windows > 10000 {
		return fmt.Errorf("windows %d out of range [0, 10000]", er.Windows)
	}
	return nil
}

// query projects the request onto a twin query.
func (er *EstimateRequest) query() twin.Query {
	return twin.Query{
		L1Bytes:  er.L1KB * 1024,
		SWLLimit: er.SWLLimit,
		LB:       er.LB,
		VTTParts: er.VTTParts,
	}
}

// handleEstimate answers one configuration query: from the calibrated twin
// when the query is in-envelope (microseconds), otherwise from a full
// simulation run synchronously under the same retry policy as sweep
// points. Simulation-tier admission is bounded by the estimate semaphore;
// overflow answers 429 like the sweep queue.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	windows := req.Windows
	if windows == 0 {
		windows = s.opts.Windows
	}
	k := runnerKey{windows, req.Paper}

	// Every path below may simulate (calibration on a cold model, or the
	// fallback run), so all of them pass admission control first.
	select {
	case s.estSem <- struct{}{}:
		defer func() { <-s.estSem }()
	default:
		w.Header().Set("Retry-After", strconv.Itoa(1+s.opts.QueueDepth))
		writeError(w, http.StatusTooManyRequests, "estimate tier busy; retry later")
		return
	}

	resp := EstimateResponse{Bench: req.Bench}
	if s.opts.Twin {
		m, err := s.twinFor(k).Model(r.Context(), s.runnerFor(windows, req.Paper), req.Bench)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "calibration failed: "+err.Error())
			return
		}
		est := m.Estimate(req.query())
		if est.InEnvelope {
			s.twinHits.Add(1)
			resp.Source, resp.IPC, resp.Lo, resp.Hi = SourceTwin, est.IPC, est.Lo, est.Hi
			resp.MissRate, resp.InEnvelope, resp.Basis = est.MissRate, true, est.Basis
			writeJSON(w, http.StatusOK, resp)
			return
		}
		resp.Reason = est.Reason
	} else {
		resp.Reason = "twin tier disabled"
	}

	// Fallback: the real simulator, synchronously.
	s.twinFallbacks.Add(1)
	res, err := s.simulateEstimate(r.Context(), windows, req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "simulation fallback: "+err.Error())
		return
	}
	resp.Source, resp.IPC, resp.InEnvelope = SourceSim, res.IPC(), false
	if total := res.L1.TotalLoadAccesses(); total > 0 {
		resp.MissRate = float64(res.L1.LoadMisses) / float64(total)
	}
	writeJSON(w, http.StatusOK, resp)
}

// simulateEstimate runs the queried configuration for real, reusing the
// sweep-point memo keys when the query has no axis overrides so estimates
// and sweeps of the same point cost one simulation between them.
func (s *Server) simulateEstimate(ctx context.Context, windows int, req EstimateRequest) (*sim.Result, error) {
	r := s.runnerFor(windows, req.Paper)
	cfg := r.Cfg
	var pol sim.Policy = sim.Baseline{}
	spec := "baseline"
	switch {
	case req.SWLLimit > 0:
		pol, spec = schemes.SWL{Limit: req.SWLLimit}, fmt.Sprintf("swl:%d", req.SWLLimit)
	case req.LB:
		pol, spec = core.New(), "linebacker"
		if req.VTTParts > 0 {
			cfg.LB.MaxPartitions = req.VTTParts
		}
	}
	if req.L1KB > 0 {
		cfg.GPU.L1Bytes = req.L1KB * 1024
	}
	cfgKey := "serve|" + spec
	if req.L1KB > 0 || req.VTTParts > 0 {
		cfgKey = fmt.Sprintf("est|l1=%d|vtt=%d|%s", req.L1KB, req.VTTParts, spec)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res, _, err := runWithRetry(ctx, s.opts.Retry, s.jit,
		func(ctx context.Context) (*sim.Result, error) {
			return r.RunCfg(ctx, cfg, cfgKey, req.Bench, pol)
		})
	return res, err
}

// tryTwinPoint answers one sweep point from the twin when the job asked
// for mode "twin" and the point's scheme maps onto a calibrated arm.
// The bool reports whether the twin answered; false falls through to the
// normal simulation path.
func (s *Server) tryTwinPoint(ctx context.Context, r *harness.Runner, job *Job, i int, p Point) bool {
	if !s.opts.Twin || job.Req.Mode != ModeTwin || job.Req.Chaos != "" {
		return false
	}
	q, ok := twinQuery(p.Scheme)
	if !ok {
		return false
	}
	k := runnerKey{job.Req.Windows, job.Req.Paper}
	m, err := s.twinFor(k).Model(ctx, r, p.Bench)
	if err != nil {
		return false // calibration trouble is the simulator's job to survive
	}
	est := m.Estimate(q)
	if !est.InEnvelope {
		return false
	}
	s.twinHits.Add(1)
	p.State, p.Source = PointOK, SourceTwin
	p.IPC, p.Lo, p.Hi = est.IPC, est.Lo, est.Hi
	p.Error = nil
	job.setPoint(i, p)
	return true
}
