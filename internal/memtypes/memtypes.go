// Package memtypes defines the addresses, request kinds and line helpers
// shared by every level of the simulated memory hierarchy.
package memtypes

import "fmt"

// Addr is a byte address in the simulated global memory space.
type Addr uint64

// LineSize is the cache-line size in bytes (also the warp-register size).
const LineSize = 128

// LineAddr is a cache-line-aligned address.
type LineAddr uint64

// Line returns the line address containing a.
func (a Addr) Line() LineAddr { return LineAddr(a &^ (LineSize - 1)) }

// Addr returns the first byte address of the line.
func (l LineAddr) Addr() Addr { return Addr(l) }

// Kind distinguishes memory request types.
type Kind uint8

const (
	// Load is a global load.
	Load Kind = iota
	// Store is a global store.
	Store
	// RegBackup is a Linebacker register backup write to off-chip memory.
	RegBackup
	// RegRestore is a Linebacker register restore read from off-chip memory.
	RegRestore
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case RegBackup:
		return "reg-backup"
	case RegRestore:
		return "reg-restore"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Request is one line-granular memory request traveling below the L1.
type Request struct {
	// Line is the requested cache line.
	Line LineAddr
	// Kind is the request type.
	Kind Kind
	// SM identifies the issuing SM (for routing the response back).
	SM int
	// WarpID identifies the issuing warp within the SM (-1 for Linebacker
	// backup/restore traffic, which is not warp-bound).
	WarpID int
	// PC is the static instruction address of the issuing load/store.
	PC uint32
	// IssueCycle is the core cycle at which the request left the SM.
	IssueCycle int64
	// ExtraLatency is added to the requester's wake-up when the response
	// arrives (e.g. the sequential victim-tag-table search that preceded
	// the fetch).
	ExtraLatency int
	// RN is the warp-register number a RegBackup/RegRestore request moves
	// (zero for other kinds). A typed field, unlike an interface, stores
	// it without a heap allocation.
	RN int
}

// Response is the completion of a Request.
type Response struct {
	Req       *Request
	DoneCycle int64
}

// RequestPool is a free list recycling Request objects inside one
// single-threaded engine instance. Requests churn at every memory level
// (SM outbox → icnt → L2 → DRAM and back), and allocating each one fresh
// made the allocator the hottest object in a sweep; the pool caps that at
// the in-flight high-water mark.
//
// Determinism contract (enforced by DESIGN.md §8 and the lbvet nondeterm
// analyzer's spirit): a Get returns a fully zeroed Request, so simulated
// state can never depend on which recycled object comes back — pool order
// is invisible to the simulation. The pool is intentionally unsynchronised:
// one pool belongs to one GPU, and the engine is single-threaded by design
// (parallelism lives in the harness, across runs).
type RequestPool struct {
	free []*Request
}

// Get returns a zeroed Request, reusing a recycled one when available.
func (p *RequestPool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	return &Request{}
}

// Put recycles a Request the engine has finished with. The object is zeroed
// immediately so a stale field can never leak into the next use.
func (p *RequestPool) Put(r *Request) {
	*r = Request{}
	p.free = append(p.free, r)
}

// Free returns the number of pooled (idle) requests.
func (p *RequestPool) Free() int { return len(p.free) }

// HashPC folds a 32-bit PC into bits bits by XOR, as the paper's hashed-PC
// (HPC) function does. bits must be in [1,16].
func HashPC(pc uint32, bits int) uint32 {
	if bits <= 0 || bits > 16 {
		panic(fmt.Sprintf("memtypes: HashPC bits %d out of range", bits))
	}
	mask := uint32(1)<<bits - 1
	h := uint32(0)
	for pc != 0 {
		h ^= pc & mask
		pc >>= uint(bits)
	}
	return h & mask
}
