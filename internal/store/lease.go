package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/linebacker-sim/linebacker/internal/sim"
)

// DoOnce is the cross-process single-flight primitive: it returns the
// committed result for key, executing fn at most once across every process
// sharing the store directory. The second return reports whether fn ran in
// this call.
//
// Protocol: a per-key lease file is created with O_CREATE|O_EXCL — an
// atomic, NFS-unfriendly but local-filesystem-exact mutual exclusion.
// Losers poll: each tick they Refresh the store (the winner's commit
// becomes visible through the segment files, not shared memory) and
// re-attempt the lease in case the winner failed without committing.
// A leaseholder renews its lease's mtime at TTL/3; only a lease whose
// holder died (no renewal for a full TTL) is ever stolen.
//
// fn errors are returned to the caller and never cached: the next caller
// (or process) re-acquires the lease and tries again — the harness
// Runner's "failures are never shared forward" rule, across processes.
func (s *Store) DoOnce(ctx context.Context, key string, fn func(ctx context.Context) (*sim.Result, error)) (*sim.Result, bool, error) {
	if res, ok := s.Get(key); ok {
		return res, false, nil
	}
	lease := s.leasePath(key)
	for {
		release, ok, err := s.tryAcquire(lease)
		if err != nil {
			return nil, false, err
		}
		if ok {
			res, executed, err := s.leaderRun(ctx, key, fn)
			release()
			return res, executed, err
		}
		// Someone else holds the lease. Wait one poll tick, then look for
		// their commit before racing for the lease again.
		select {
		case <-ctx.Done():
			return nil, false, fmt.Errorf("store: waiting for in-flight execution of key %.60q…: %w",
				key, context.Cause(ctx))
		case <-time.After(s.opt.LeasePoll):
		}
		if err := s.Refresh(); err != nil {
			return nil, false, err
		}
		if res, ok := s.Get(key); ok {
			return res, false, nil
		}
	}
}

// leaderRun executes fn under an already-held lease, re-checking the store
// first: a previous holder may have committed between our Get miss and our
// acquire.
func (s *Store) leaderRun(ctx context.Context, key string, fn func(ctx context.Context) (*sim.Result, error)) (*sim.Result, bool, error) {
	if err := s.Refresh(); err != nil {
		return nil, false, err
	}
	if res, ok := s.Get(key); ok {
		return res, false, nil
	}
	res, err := fn(ctx)
	if err != nil {
		return nil, true, err
	}
	if perr := s.Put(key, res); perr != nil {
		// The simulation succeeded; only persistence failed. The result is
		// correct and returned — durability degradation is reported through
		// Err()/the sticky write error, not by failing the run.
		return res, true, nil
	}
	return res, true, nil
}

// leasePath maps a key (arbitrary length, arbitrary bytes) to a stable
// lock-file path.
func (s *Store) leasePath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, lockDir, hex.EncodeToString(sum[:12])+".lease")
}

// tryAcquire attempts the lease once. On success it starts the renewal
// keeper and returns a release func; on contention it checks staleness and
// may steal a dead holder's lease before reporting failure.
func (s *Store) tryAcquire(lease string) (release func(), ok bool, err error) {
	f, err := os.OpenFile(lease, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		fmt.Fprintf(f, "pid %d\n", os.Getpid())
		if cerr := f.Close(); cerr != nil {
			os.Remove(lease) //lbvet:errok — best-effort cleanup; the close error below is the one reported
			return nil, false, fmt.Errorf("store: writing lease %s: %w", lease, cerr)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go s.renewLease(lease, stop, done)
		return func() {
			close(stop)
			<-done
			os.Remove(lease) //lbvet:errok — a remove failure only delays waiters by one TTL; the steal path recovers
		}, true, nil
	}
	if !os.IsExist(err) {
		return nil, false, fmt.Errorf("store: acquiring lease %s: %w", lease, err)
	}
	// Held. Steal only if the holder stopped renewing a full TTL ago —
	// i.e. it is dead, because live holders renew at TTL/3.
	if st, serr := os.Stat(lease); serr == nil && time.Since(st.ModTime()) > s.opt.LeaseTTL {
		os.Remove(lease) //lbvet:errok — racing stealers are fine: every path re-runs the O_EXCL acquire, which stays atomic
	}
	return nil, false, nil
}

// renewLease touches the lease's mtime at TTL/3 until stopped, so a live
// (possibly hours-long) simulation is never mistaken for a dead holder.
func (s *Store) renewLease(lease string, stop, done chan struct{}) {
	defer close(done)
	tick := s.opt.LeaseTTL / 3
	if tick <= 0 {
		tick = time.Second
	}
	for {
		select {
		case <-stop:
			return
		case <-time.After(tick):
			now := time.Now()
			os.Chtimes(lease, now, now) //lbvet:errok — a missed renewal is self-healing: worst case the lease is stolen and the duplicate run commits an identical result
		}
	}
}
