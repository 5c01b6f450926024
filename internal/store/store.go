package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/linebacker-sim/linebacker/internal/sim"
)

// record is one committed result, JSON-encoded inside a CRC frame. The key
// embeds the full harness config fingerprint, so records written under a
// different configuration (or with chaos armed) can never alias.
type record struct {
	V      int         `json:"v"`
	Key    string      `json:"key"`
	Result *sim.Result `json:"result"`
}

const recordVersion = 1

// segment file naming: seg-NNNNNN.lbs, monotonically increasing. Each
// process owns exactly one active segment (created lazily on first Put
// with O_EXCL, so two replicas can never share one) and treats every other
// segment as read-only.
const (
	segPrefix = "seg-"
	segSuffix = ".lbs"
	lockDir   = "locks"
)

// Options tunes a Store. The zero value is production-ready.
//
// Each handle appends to the one segment it claims on its first Put for as
// long as it lives; segments are not rotated by size. A size cap would not
// bound the torn-tail scan, because Open and Refresh read every segment
// whole, and nothing removes old segments. It would bound only the buffer
// each such read allocates: at about 1.6 KB a record, a segment reaches
// 4 MiB only after some 2 600 results.
type Options struct {
	// LeaseTTL is how stale a lease file must be before another process
	// may steal it (default 1 minute). Leaseholders renew at TTL/3, so
	// only a dead process's lease ever expires.
	LeaseTTL time.Duration
	// LeasePoll is the waiters' polling interval for lease release and
	// store refresh (default 25 ms).
	LeasePoll time.Duration
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = time.Minute
	}
	if o.LeasePoll <= 0 {
		o.LeasePoll = 25 * time.Millisecond
	}
	return o
}

// LoadReport summarises what opening (plus refreshing) a store directory
// found. lbserve exports it through /v1/stats, and the crash-restart
// acceptance test asserts on it.
type LoadReport struct {
	// Loaded counts usable records (unique keys keep their first-loaded
	// result; duplicate records across segments are benign — determinism
	// makes them bit-identical — and counted here once per key).
	Loaded int `json:"loaded"`
	// Skipped counts corrupt regions stepped over by the frame scanner.
	Skipped int `json:"skipped"`
	// TruncatedBytes counts unconsumed tail bytes across segments — the
	// footprint of writers that died mid-record.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Segments is the number of segment files seen.
	Segments int `json:"segments"`
}

// Store is a persistent content-addressed result store over one directory.
// All methods are safe for concurrent use; several Store handles (in one
// process or many) may share a directory.
type Store struct {
	dir string
	opt Options

	mu      sync.Mutex
	entries map[string]*sim.Result
	report  LoadReport
	// scanned tracks, per foreign segment base name, how many bytes have
	// been consumed, so Refresh parses only appended suffixes.
	scanned map[string]int64
	active  *os.File
	// activeName is the base name of this handle's own segment ("" until
	// the first Put creates it).
	activeName string
	writeErr   error
	closed     bool
}

// Open loads every segment under dir (creating the directory if needed)
// and returns a handle ready for Get/Put/DoOnce. Corrupt records and torn
// tails are tolerated and tallied in the load report; they cost
// re-simulation, never a failed open.
//
// Open validates the lease TTL against the directory's actual timestamp
// resolution: leaseholders renew by advancing the lease mtime at TTL/3,
// so on a filesystem that stores coarse mtimes (FAT: 2s; some network
// filesystems: 1s) a too-small TTL would make live holders' renewals
// invisible and their leases steadily stolen mid-run. That is a
// misconfiguration, not a runtime condition — so it fails construction.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, lockDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	opt = opt.withDefaults()
	gran, err := mtimeGranularityFn(filepath.Join(dir, lockDir))
	if err != nil {
		return nil, err
	}
	if min := minLeaseTTL(gran); opt.LeaseTTL < min {
		return nil, fmt.Errorf("store: LeaseTTL %v is below the liveness minimum %v for %s (observed mtime granularity %v): TTL/3 renewals would round away and live leases would be stolen",
			opt.LeaseTTL, min, dir, gran)
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		entries: map[string]*sim.Result{},
		scanned: map[string]int64{},
	}
	if err := s.refreshLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// minLeaseTTL is the smallest TTL at which TTL/3 renewals stay visible on
// a filesystem with the observed mtime granularity: each renewal must
// advance the stored timestamp by at least one resolvable step, with one
// extra step of slack for truncate-vs-round ambiguity.
func minLeaseTTL(gran time.Duration) time.Duration {
	if gran <= 0 {
		return 0
	}
	return 4 * gran
}

// mtimeGranularityFn is swapped by tests to simulate coarse filesystems.
var mtimeGranularityFn = mtimeGranularity

// mtimeGranularity measures the filesystem's file-timestamp resolution
// under dir: it stamps a probe file with a reference instant carrying full
// nanosecond precision and reports how much of it the filesystem dropped
// (0 on ext4/tmpfs/APFS; ~1s on many network mounts; up to 2s on FAT).
func mtimeGranularity(dir string) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "mtime-probe-*")
	if err != nil {
		return 0, fmt.Errorf("store: probing mtime granularity in %s: %w", dir, err)
	}
	name := f.Name()
	defer os.Remove(name) //lbvet:errok — a leaked zero-byte probe file is harmless
	if cerr := f.Close(); cerr != nil {
		return 0, fmt.Errorf("store: probing mtime granularity: %w", cerr)
	}
	// An odd second plus maximal sub-second part exposes truncation at any
	// power-of-ten resolution and FAT's 2-second rounding alike.
	ref := time.Unix(1_700_000_001, 999_999_999)
	if terr := os.Chtimes(name, ref, ref); terr != nil {
		return 0, fmt.Errorf("store: probing mtime granularity: %w", terr)
	}
	st, err := os.Stat(name)
	if err != nil {
		return 0, fmt.Errorf("store: probing mtime granularity: %w", err)
	}
	diff := ref.Sub(st.ModTime())
	if diff < 0 {
		diff = -diff // filesystems that round to nearest may land past ref
	}
	return diff, nil
}

// segments lists the segment base names in dir, sorted (their zero-padded
// indices make lexical order creation order).
func (s *Store) segments() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// segIndexOf parses the numeric index out of a segment base name, or -1.
func segIndexOf(name string) int {
	num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	idx := 0
	for _, c := range num {
		if c < '0' || c > '9' {
			return -1
		}
		idx = idx*10 + int(c-'0')
	}
	if num == "" {
		return -1
	}
	return idx
}

func segName(idx int) string { return fmt.Sprintf("%s%06d%s", segPrefix, idx, segSuffix) }

// Refresh picks up records committed by other processes since open (new
// segments, and new suffixes of known ones). It never modifies foreign
// files: an incomplete tail is left alone — if its writer is alive the
// next Refresh consumes it once the fsync lands, and if the writer died
// the bytes stay dead: every later open counts them as TruncatedBytes.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refreshLocked()
}

func (s *Store) refreshLocked() error {
	names, err := s.segments()
	if err != nil {
		return err
	}
	s.report.Segments = len(names)
	for _, name := range names {
		if name == s.activeName {
			continue // our own writes are already in entries
		}
		if err := s.scanSegmentLocked(name); err != nil {
			return err
		}
	}
	return nil
}

// scanSegmentLocked reads the unconsumed suffix of one segment and loads
// its intact records.
func (s *Store) scanSegmentLocked(name string) error {
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // deleted by hand between ReadDir and here
		}
		return fmt.Errorf("store: reading segment %s: %w", path, err)
	}
	from := s.scanned[name]
	if int64(len(data)) <= from {
		return nil
	}
	sc := scanFrames(data[from:], func(payload []byte) {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.V != recordVersion || rec.Key == "" || rec.Result == nil {
			s.report.Skipped++
			return
		}
		if _, dup := s.entries[rec.Key]; !dup {
			s.entries[rec.Key] = rec.Result
			s.report.Loaded++
		}
	})
	s.scanned[name] = from + sc.consumed
	s.report.Skipped += sc.skipped
	s.report.TruncatedBytes += sc.tail
	return nil
}

// Get returns the committed result for key, if any. It consults only this
// handle's view; DoOnce refreshes before deciding to execute.
func (s *Store) Get(key string) (*sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.entries[key]
	return res, ok
}

// Len returns the number of distinct keys loaded.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Keys returns the loaded keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Report returns the cumulative load report of this handle.
func (s *Store) Report() LoadReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Err returns the first sticky write failure, if any. A failed append
// degrades durability, not correctness: the in-memory entry stays valid,
// and lbserve surfaces the error through /healthz (lbsweep through its exit
// status) instead of failing the simulation that produced the result.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeErr
}

// ensureActiveLocked creates this handle's own segment on first use. The
// O_EXCL loop guarantees segment ownership even when several replicas
// open the directory simultaneously.
func (s *Store) ensureActiveLocked() error {
	if s.active != nil {
		return nil
	}
	names, err := s.segments()
	if err != nil {
		return err
	}
	next := 1
	for _, n := range names {
		if idx := segIndexOf(n); idx >= next {
			next = idx + 1
		}
	}
	for tries := 0; tries < 10000; tries++ {
		name := segName(next)
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			s.active, s.activeName = f, name
			s.report.Segments++
			return nil
		}
		if !os.IsExist(err) {
			return fmt.Errorf("store: creating segment %s: %w", name, err)
		}
		next++ // another replica claimed this index; take the next one
	}
	return fmt.Errorf("store: could not claim a segment index in %s", s.dir)
}

// Put commits one result: framed, appended to this handle's segment and
// fsynced before returning. A key already present is a no-op — results are
// deterministic, so the first commit is as good as any. Write failures are
// sticky (see Err) but do not invalidate the in-memory entry.
func (s *Store) Put(key string, res *sim.Result) error {
	if key == "" || res == nil {
		return fmt.Errorf("store: refusing to commit empty key or nil result")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: put on closed store")
	}
	if _, dup := s.entries[key]; dup {
		return nil
	}
	payload, err := json.Marshal(record{V: recordVersion, Key: key, Result: res})
	if err != nil {
		return s.stickyLocked(fmt.Errorf("store: encoding record: %w", err))
	}
	if err := s.ensureActiveLocked(); err != nil {
		return s.stickyLocked(err)
	}
	frame := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	// One Write call per record: a crash mid-write leaves exactly the
	// torn-tail shape the scanner refuses to consume.
	if _, err := s.active.Write(frame); err != nil {
		return s.stickyLocked(fmt.Errorf("store: appending to %s: %w", s.activeName, err))
	}
	// The commit point: a record is acknowledged only after its fsync, so
	// a power loss can cost at most the record being written.
	if err := s.active.Sync(); err != nil {
		return s.stickyLocked(fmt.Errorf("store: fsync %s: %w", s.activeName, err))
	}
	s.entries[key] = res
	s.report.Loaded++
	return nil
}

// stickyLocked records the first write failure and returns err.
func (s *Store) stickyLocked(err error) error {
	if s.writeErr == nil {
		s.writeErr = err
	}
	return err
}

// Close closes this handle's segment and returns the first write failure,
// which a failed close becomes if nothing failed before it. The directory
// stays valid for other handles.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.writeErr
	}
	s.closed = true
	if s.active != nil {
		if err := s.active.Close(); err != nil && s.writeErr == nil {
			s.writeErr = fmt.Errorf("store: closing %s: %w", s.activeName, err)
		}
	}
	return s.writeErr
}
