package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/sim"
)

// testResult builds a distinguishable result for key-equality assertions.
func testResult(n int64) *sim.Result {
	return &sim.Result{
		Policy:       "baseline",
		Kernel:       fmt.Sprintf("K%d", n),
		Cycles:       1000 + n,
		Instructions: 5000 + 3*n,
		Extra:        map[string]float64{"n": float64(n)},
	}
}

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), testResult(int64(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if got := s.Len(); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh handle must see every committed record, bit-identically.
	s2 := openT(t, dir, Options{})
	rep := s2.Report()
	if rep.Loaded != 20 || rep.Skipped != 0 || rep.TruncatedBytes != 0 {
		t.Fatalf("reopen report = %+v, want 20 loaded and no damage", rep)
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%02d", i)
		res, ok := s2.Get(key)
		if !ok {
			t.Fatalf("reopen lost key %s", key)
		}
		if want := testResult(int64(i)); !reflect.DeepEqual(res, want) {
			t.Errorf("%s: result changed across reopen\n got %+v\nwant %+v", key, res, want)
		}
	}
}

func TestRecordDurableBeforeAck(t *testing.T) {
	// Crash-safety floor: the moment Put returns, the record must be
	// complete in the segment file — no user-space buffering — so a
	// kill -9 after an acknowledgement can never lose the record.
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put("k", testResult(7)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Deliberately no Close: read the directory as a second process would
	// after the first died.
	s2 := openT(t, dir, Options{})
	if res, ok := s2.Get("k"); !ok || res.Cycles != 1007 {
		t.Fatalf("acknowledged record not readable from disk: ok=%v res=%+v", ok, res)
	}
}

func TestDuplicatePutIsNoOp(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put("k", testResult(1)); err != nil {
		t.Fatal(err)
	}
	sizeAfterFirst := segmentBytes(t, dir)
	if err := s.Put("k", testResult(1)); err != nil {
		t.Fatal(err)
	}
	if got := segmentBytes(t, dir); got != sizeAfterFirst {
		t.Fatalf("duplicate Put appended bytes: %d -> %d", sizeAfterFirst, got)
	}
}

func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), testResult(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Cut the last record short, as a mid-write crash would.
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	rep := s2.Report()
	if rep.Loaded != 4 {
		t.Fatalf("loaded %d records past a torn tail, want 4 (report %+v)", rep.Loaded, rep)
	}
	if rep.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rep)
	}
	if _, ok := s2.Get("k4"); ok {
		t.Fatal("torn record must not load")
	}
	// The store stays writable: the torn key can be recommitted.
	if err := s2.Put("k4", testResult(4)); err != nil {
		t.Fatalf("recommit after torn tail: %v", err)
	}
}

func TestCorruptInteriorRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), testResult(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip bytes inside the second record's payload: its CRC fails, the
	// scanner resynchronises, and records 3..5 still load.
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(data) / 5
	for i := recLen + frameHeaderLen + 2; i < recLen+frameHeaderLen+8; i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	rep := s2.Report()
	if rep.Loaded != 4 || rep.Skipped == 0 {
		t.Fatalf("report after interior corruption = %+v, want 4 loaded, >0 skipped", rep)
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := s2.Get(k); !ok {
			t.Errorf("intact record %s lost to a neighbour's corruption", k)
		}
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestRefreshSeesForeignCommits(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{})
	b := openT(t, dir, Options{})

	if err := a.Put("k", testResult(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("k"); ok {
		t.Fatal("handle b saw the commit without Refresh — in-memory views must be per-handle")
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	res, ok := b.Get("k")
	if !ok {
		t.Fatal("Refresh did not pick up the foreign commit")
	}
	if !reflect.DeepEqual(res, testResult(3)) {
		t.Fatalf("foreign commit mutated in transit: %+v", res)
	}

	// Both handles writing distinct keys must never interleave: each owns
	// its segment.
	if err := b.Put("k2", testResult(4)); err != nil {
		t.Fatal(err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Get("k2"); !ok {
		t.Fatal("handle a cannot see handle b's segment")
	}
}

func TestDoOnceExecutesExactlyOnceAcrossHandles(t *testing.T) {
	// The acceptance-criteria property at store level: N concurrent
	// callers over separate handles on one directory, one key — exactly
	// one execution, everyone gets the result.
	dir := t.TempDir()
	opt := Options{LeasePoll: 2 * time.Millisecond}
	handles := make([]*Store, 4)
	for i := range handles {
		handles[i] = openT(t, dir, opt)
	}

	var execs int32
	run := func(ctx context.Context) (*sim.Result, error) {
		// Not atomic on purpose: a racing second execution would likely
		// also trip the race detector, giving a second signal.
		execs++
		time.Sleep(20 * time.Millisecond) // hold the lease long enough to create real contention
		return testResult(42), nil
	}

	type out struct {
		res      *sim.Result
		executed bool
		err      error
	}
	outs := make(chan out, len(handles)*2)
	for _, h := range handles {
		h := h
		for j := 0; j < 2; j++ {
			go func() {
				res, executed, err := h.DoOnce(context.Background(), "the-key", run)
				outs <- out{res, executed, err}
			}()
		}
	}
	executed := 0
	for i := 0; i < len(handles)*2; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatalf("DoOnce: %v", o.err)
		}
		if o.executed {
			executed++
		}
		if !reflect.DeepEqual(o.res, testResult(42)) {
			t.Fatalf("caller got wrong result: %+v", o.res)
		}
	}
	if execs != 1 || executed != 1 {
		t.Fatalf("executions = %d (reported %d), want exactly 1", execs, executed)
	}
}

func TestDoOnceContentionTimeout(t *testing.T) {
	dir := t.TempDir()
	opt := Options{LeasePoll: 2 * time.Millisecond}
	a := openT(t, dir, opt)
	b := openT(t, dir, opt)

	started := make(chan struct{})
	finish := make(chan struct{})
	go func() {
		a.DoOnce(context.Background(), "slow", func(ctx context.Context) (*sim.Result, error) {
			close(started)
			<-finish
			return testResult(1), nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, executed, err := b.DoOnce(ctx, "slow", func(ctx context.Context) (*sim.Result, error) {
		t.Error("waiter must not execute while the lease is held")
		return nil, nil
	})
	if executed || err == nil {
		t.Fatalf("contended DoOnce = executed=%v err=%v, want deadline error", executed, err)
	}
	if ctx.Err() == nil {
		t.Fatalf("returned before the deadline with: %v", err)
	}
	close(finish)
}

func TestDoOnceErrorNotCachedAndRetriable(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{LeasePoll: time.Millisecond})

	boom := fmt.Errorf("injected failure")
	_, executed, err := s.DoOnce(context.Background(), "k", func(ctx context.Context) (*sim.Result, error) {
		return nil, boom
	})
	if !executed || err != boom {
		t.Fatalf("first DoOnce = executed=%v err=%v, want executed + injected failure", executed, err)
	}
	// The failure must not poison the key: the next caller runs again.
	res, executed, err := s.DoOnce(context.Background(), "k", func(ctx context.Context) (*sim.Result, error) {
		return testResult(5), nil
	})
	if err != nil || !executed || res.Cycles != 1005 {
		t.Fatalf("retry after failure = res=%+v executed=%v err=%v", res, executed, err)
	}
}

func TestStaleLeaseStolen(t *testing.T) {
	dir := t.TempDir()
	opt := Options{LeasePoll: 2 * time.Millisecond, LeaseTTL: 20 * time.Millisecond}
	s := openT(t, dir, opt)

	// Fake a dead holder: a lease file nobody renews, older than the TTL.
	lease := s.leasePath("k")
	if err := os.WriteFile(lease, []byte("pid 999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Minute)
	if err := os.Chtimes(lease, past, past); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, executed, err := s.DoOnce(ctx, "k", func(ctx context.Context) (*sim.Result, error) {
		return testResult(9), nil
	})
	if err != nil || !executed || res.Cycles != 1009 {
		t.Fatalf("stale lease not stolen: res=%+v executed=%v err=%v", res, executed, err)
	}
}
