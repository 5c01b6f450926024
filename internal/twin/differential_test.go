package twin

import (
	"context"
	"reflect"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/harness"
)

const goldenPath = "../check/testdata/golden.json"

// diffAxes calibrates the cache axis only, deliberately excluding the
// 48KB base point the golden grid was captured at: the differential test
// then asks the twin to predict a size it has never seen, and the
// committed golden snapshot supplies the truth for free.
var diffAxes = Axes{L1KB: []int{32, 64, 96}, SWLLimits: []int{}, VTTParts: []int{}}

// TestDifferentialGoldenGrid is the tentpole's correctness argument: over
// the golden grid (20 benches x {baseline, lb} in the no-race build), every
// in-envelope twin estimate at the held-out base L1 size must land inside
// its own stated confidence band around the committed simulator truth.
func TestDifferentialGoldenGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite simulates calibration anchors; skipped in -short")
	}
	snap, err := check.LoadSnapshot(goldenPath)
	if err != nil {
		t.Fatalf("loading golden snapshot: %v", err)
	}
	cfg := harness.BenchConfig()
	if cfg.GPU.L1Bytes != 48*1024 {
		t.Fatalf("BenchConfig L1 = %d B; the held-out-point argument assumes 48KB", cfg.GPU.L1Bytes)
	}
	r := harness.NewRunner(cfg, snap.Windows)

	for _, bench := range diffBenches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			m, err := Calibrate(context.Background(), r, bench, Options{Axes: diffAxes})
			if err != nil {
				t.Fatalf("calibrate: %v", err)
			}
			for _, arm := range []string{ArmBaseline, ArmLB} {
				truth, ok := snap.Entries[bench+"|"+arm]
				if !ok {
					t.Fatalf("golden snapshot has no entry %s|%s", bench, arm)
				}
				truthIPC := float64(truth.Instructions) / float64(truth.Cycles)
				est := m.Estimate(Query{L1Bytes: cfg.GPU.L1Bytes, LB: arm == ArmLB})
				if !est.InEnvelope {
					t.Errorf("%s: 48KB query out of envelope (%s) despite anchors bracketing it", arm, est.Reason)
					continue
				}
				if truthIPC < est.Lo || truthIPC > est.Hi {
					t.Errorf("%s: simulator IPC %.4f outside twin band [%.4f, %.4f] (point %.4f, band half-width %.1f%%)",
						arm, truthIPC, est.Lo, est.Hi, est.IPC, 100*m.Band.Cache)
					continue
				}
				relErr := (est.IPC - truthIPC) / truthIPC
				t.Logf("%s: twin %.4f vs sim %.4f (%+.2f%%), band ±%.1f%%",
					arm, est.IPC, truthIPC, 100*relErr, 100*m.Band.Cache)
			}
		})
	}
}

// TestCalibrationDeterministicAcrossSweepWorkers enforces the "deterministic
// by construction" claim: calibrating on runners with different sweep-pool
// widths must produce byte-for-byte equal models — nothing in a model may
// depend on how many simulations the runner lets run at once.
func TestCalibrationDeterministicAcrossSweepWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates two runners; skipped in -short")
	}
	axes := Axes{L1KB: []int{32, 64}, SWLLimits: []int{1, 2}, VTTParts: []int{1, 8}}
	models := make([]*Model, 2)
	for i, workers := range []int{1, 3} {
		r := harness.NewRunner(harness.BenchConfig(), 2)
		r.SweepWorkers = workers
		m, err := Calibrate(context.Background(), r, "S2", Options{Axes: axes})
		if err != nil {
			t.Fatalf("SweepWorkers=%d: %v", workers, err)
		}
		models[i] = m
	}
	if !reflect.DeepEqual(models[0], models[1]) {
		t.Errorf("models diverge across sweep pool widths:\n w=1: %+v\n w=3: %+v", models[0], models[1])
	}
}

// TestCalibrationMemoised verifies a recalibration answers from the
// runner's memo instead of re-simulating: same model, no new executions.
func TestCalibrationMemoised(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates a runner; skipped in -short")
	}
	r := harness.NewRunner(harness.BenchConfig(), 2)
	opt := Options{Axes: Axes{L1KB: []int{32, 64}, SWLLimits: []int{}, VTTParts: []int{}}}
	m1, err := Calibrate(context.Background(), r, "BI", opt)
	if err != nil {
		t.Fatal(err)
	}
	execs := r.Executions()
	m2, err := Calibrate(context.Background(), r, "BI", opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Executions(); got != execs {
		t.Errorf("recalibration re-simulated: %d executions, want %d", got, execs)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("recalibration changed the model")
	}
}
