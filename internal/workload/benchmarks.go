package workload

import (
	"slices"
	"sort"
	"sync"
)

// Benchmark pairs a synthetic kernel with its Table 2 identity.
type Benchmark struct {
	// Name is the paper's two-letter code (S2, BI, ...).
	Name string
	// Desc is the Table 2 description.
	Desc string
	// Suite is the source benchmark suite in the paper.
	Suite string
	// Sensitive is the paper's cache-sensitivity class (Table 2): an app is
	// cache-sensitive when a 192 KB L1 speeds it up >30 % over 48 KB.
	Sensitive bool
	// Kernel is the synthetic model. The Table 2 kernels are built once
	// and shared by every caller, including concurrently running
	// simulations, so they are read-only: a caller that needs a variant
	// copies the kernel first, as WithSeed does.
	Kernel *Kernel
}

// Each synthetic kernel below encodes the per-load behaviour the paper
// reports for its application (Sections 2.2–2.4):
//
//   - Per-warp tiled loads model the CCWS-style working sets whose
//     aggregate scales with the active warp count — these respond to warp
//     throttling (SWL), token-based allocation (PCAL) and victim caching.
//   - Phase-0 shared tiled loads (per-SM/global) model rows and vectors
//     reused by concurrently running warps — their footprint does not
//     shrink under throttling, so only extra cache capacity helps them.
//   - Streaming loads model one-touch data; their volumes follow Figure 3
//     (BI, LI, SR2, 2D and HS exceed the 48 KB cache in one window).
//
// Register and CTA shapes spread statically unused register space over the
// paper's 4–144 KB range (Figure 4).

func load(p Pattern, s Scope, ws, coalesced, phase int) LoadSpec {
	return LoadSpec{Pattern: p, Scope: s, WorkingSetBytes: ws, Coalesced: coalesced, Phase: phase}
}

func streamStore() LoadSpec {
	return LoadSpec{Pattern: Streaming, Scope: PerWarp, Coalesced: 1}
}

const kb = 1024

// defaultGrid is the CTA grid size for every synthetic kernel: large enough
// that SMs never starve during a capped simulation.
const defaultGrid = 4096

// defaultIters keeps CTA lifetimes at a few monitoring windows so the
// CTA-completion / re-activation path is exercised.
const defaultIters = 2500

// All returns the 20 benchmark models of Table 2, in the paper's order
// (cache-sensitive first). The slice is the caller's own; the kernels it
// points to are shared and read-only (see Benchmark.Kernel).
func All() []Benchmark { return slices.Clone(table()) }

// table builds the Table 2 models on first use and returns the same slice
// to every later caller.
var table = sync.OnceValue(buildTable)

// buildTable constructs the Table 2 models.
func buildTable() []Benchmark {
	return []Benchmark{
		// ---- Cache-sensitive (Table 2a) ----
		{
			Name: "S2", Desc: "Symm. rank 2k operations", Suite: "Polybench", Sensitive: true,
			Kernel: NewKernel("S2",
				[]LoadSpec{
					load(Irregular, PerSM, 96*kb, 2, 0),
					load(Tiled, PerWarp, 512, 1, 0),
				},
				[]LoadSpec{streamStore()},
				2, 8, defaultIters, 8, 24, defaultGrid),
		},
		{
			Name: "GE", Desc: "Scalar, Vector and Matrix Mul.", Suite: "Polybench", Sensitive: true,
			Kernel: NewKernel("GE",
				[]LoadSpec{
					load(Irregular, PerSM, 80*kb, 2, 0),
					load(Tiled, PerWarp, 512, 1, 0),
				},
				[]LoadSpec{streamStore()},
				2, 8, defaultIters, 4, 26, defaultGrid),
		},
		{
			Name: "BI", Desc: "BiCGStab Linear Solver", Suite: "Polybench", Sensitive: true,
			Kernel: NewKernel("BI",
				[]LoadSpec{
					load(Irregular, PerSM, 96*kb, 2, 0),
					{Pattern: Streaming, Scope: PerWarp, Coalesced: 2, Every: 4},
				},
				[]LoadSpec{streamStore()},
				2, 8, defaultIters, 8, 24, defaultGrid),
		},
		{
			Name: "KM", Desc: "KMeans", Suite: "Rodinia", Sensitive: true,
			Kernel: NewKernel("KM",
				[]LoadSpec{
					load(Irregular, PerSM, 80*kb, 2, 0),
					{Pattern: Streaming, Scope: PerWarp, Coalesced: 1, Every: 16},
				},
				[]LoadSpec{streamStore()},
				2, 8, defaultIters, 8, 20, defaultGrid),
		},
		{
			Name: "AT", Desc: "Matrix Transpose-Vector Mul.", Suite: "Polybench", Sensitive: true,
			Kernel: NewKernel("AT",
				[]LoadSpec{
					load(Irregular, PerSM, 112*kb, 2, 0),
					load(Tiled, Global, 8*kb, 2, 0),
				},
				[]LoadSpec{streamStore()},
				2, 8, defaultIters, 4, 24, defaultGrid),
		},
		{
			Name: "BC", Desc: "BFS (CUDA SDK)", Suite: "CUDA SDK", Sensitive: true,
			Kernel: NewKernel("BC",
				[]LoadSpec{
					load(Irregular, PerSM, 96*kb, 4, 0),
					{Pattern: Streaming, Scope: PerWarp, Coalesced: 2, Every: 2},
				},
				nil,
				2, 6, defaultIters, 4, 16, defaultGrid),
		},
		{
			Name: "S1", Desc: "Symm. rank 1k operations", Suite: "Polybench", Sensitive: true,
			Kernel: NewKernel("S1",
				[]LoadSpec{
					load(Irregular, PerSM, 64*kb, 2, 0),
					load(Tiled, PerWarp, 1*kb, 1, 0),
				},
				[]LoadSpec{streamStore()},
				2, 8, defaultIters, 8, 26, defaultGrid),
		},
		{
			Name: "MV", Desc: "Matrix Vector Product-Transpose", Suite: "Polybench", Sensitive: true,
			Kernel: NewKernel("MV",
				[]LoadSpec{
					load(Irregular, PerSM, 88*kb, 2, 0),
					load(Tiled, Global, 16*kb, 2, 0),
					{Pattern: Streaming, Scope: PerWarp, Coalesced: 1, Every: 8},
				},
				[]LoadSpec{streamStore()},
				2, 8, defaultIters, 4, 24, defaultGrid),
		},
		{
			Name: "CF", Desc: "CFD Solver", Suite: "Rodinia", Sensitive: true,
			Kernel: NewKernel("CF",
				[]LoadSpec{
					load(Irregular, PerWarp, 2*kb, 2, 0),
					load(Irregular, PerSM, 32*kb, 2, 0),
				},
				[]LoadSpec{streamStore()},
				3, 10, defaultIters, 8, 40, defaultGrid),
		},
		{
			Name: "PF", Desc: "ParticleFilter Float", Suite: "Rodinia", Sensitive: true,
			Kernel: NewKernel("PF",
				[]LoadSpec{
					load(Irregular, PerWarp, 2*kb, 2, 0),
					load(Tiled, PerCTA, 8*kb, 1, 0),
				},
				[]LoadSpec{streamStore()},
				3, 8, defaultIters, 8, 28, defaultGrid),
		},

		// ---- Cache-insensitive (Table 2b) ----
		{
			Name: "BG", Desc: "BFS (GPGPU-Sim)", Suite: "GPGPU-Sim", Sensitive: false,
			Kernel: NewKernel("BG",
				[]LoadSpec{
					load(Irregular, PerSM, 512*kb, 4, 0),
					load(Streaming, PerWarp, 0, 2, 0),
				},
				nil,
				2, 6, defaultIters, 4, 16, defaultGrid),
		},
		{
			Name: "LI", Desc: "LIBOR Monte Carlo", Suite: "GPGPU-Sim", Sensitive: false,
			Kernel: NewKernel("LI",
				[]LoadSpec{
					load(Streaming, PerWarp, 0, 2, 0),
					load(Tiled, Global, 8*kb, 1, 0),
				},
				[]LoadSpec{streamStore()},
				4, 12, defaultIters, 8, 63, defaultGrid),
		},
		{
			Name: "SR2", Desc: "SRAD (v2)", Suite: "Rodinia", Sensitive: false,
			Kernel: NewKernel("SR2",
				[]LoadSpec{
					load(Streaming, PerWarp, 0, 2, 0),
					load(Tiled, PerCTA, 4*kb, 1, 0),
				},
				[]LoadSpec{streamStore()},
				3, 8, defaultIters, 8, 24, defaultGrid),
		},
		{
			Name: "SP", Desc: "SPMV", Suite: "Parboil", Sensitive: false,
			Kernel: NewKernel("SP",
				[]LoadSpec{
					load(Irregular, Global, 40*kb, 2, 0),
					load(Streaming, PerWarp, 0, 2, 0),
				},
				[]LoadSpec{streamStore()},
				2, 6, defaultIters, 4, 21, defaultGrid),
		},
		{
			Name: "BR", Desc: "BFS (Rodinia)", Suite: "Rodinia", Sensitive: false,
			Kernel: NewKernel("BR",
				[]LoadSpec{
					load(Irregular, PerSM, 16*kb, 4, 0),
					load(Streaming, PerWarp, 0, 1, 0),
				},
				nil,
				2, 6, defaultIters, 4, 17, defaultGrid),
		},
		{
			Name: "FD", Desc: "2D FDTD", Suite: "Polybench", Sensitive: false,
			Kernel: NewKernel("FD",
				[]LoadSpec{
					load(Tiled, PerSM, 12*kb, 1, 0),
					load(Tiled, PerSM, 12*kb, 1, 0),
				},
				[]LoadSpec{streamStore()},
				4, 14, defaultIters, 16, 20, defaultGrid),
		},
		{
			Name: "GA", Desc: "Gaussian Elimination", Suite: "Rodinia", Sensitive: false,
			Kernel: NewKernel("GA",
				[]LoadSpec{
					load(Tiled, PerSM, 10*kb, 1, 0),
					load(Streaming, PerWarp, 0, 1, 0),
				},
				[]LoadSpec{streamStore()},
				2, 8, defaultIters, 4, 18, defaultGrid),
		},
		{
			Name: "2D", Desc: "2D Convolution", Suite: "Polybench", Sensitive: false,
			Kernel: NewKernel("2D",
				[]LoadSpec{
					load(Tiled, PerSM, 16*kb, 1, 0),
					load(Streaming, PerWarp, 0, 2, 0),
				},
				[]LoadSpec{streamStore()},
				3, 8, defaultIters, 8, 26, defaultGrid),
		},
		{
			Name: "SR1", Desc: "SRAD (v1)", Suite: "Rodinia", Sensitive: false,
			Kernel: NewKernel("SR1",
				[]LoadSpec{
					load(Tiled, PerSM, 24*kb, 1, 0),
					load(Streaming, PerWarp, 0, 1, 0),
				},
				[]LoadSpec{streamStore()},
				3, 8, defaultIters, 8, 28, defaultGrid),
		},
		{
			Name: "HS", Desc: "HotSpot", Suite: "Rodinia", Sensitive: false,
			Kernel: NewKernel("HS",
				[]LoadSpec{
					load(Tiled, PerSM, 20*kb, 1, 0),
					load(Streaming, PerWarp, 0, 2, 0),
				},
				[]LoadSpec{streamStore()},
				4, 12, defaultIters, 8, 34, defaultGrid),
		},
	}
}

// Names returns the benchmark codes in Table 2 order.
func Names() []string {
	bs := table()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// ByName looks a benchmark up by its Table 2 code.
func ByName(name string) (Benchmark, bool) {
	for _, b := range table() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// SensitiveNames returns the cache-sensitive benchmark codes, sorted.
func SensitiveNames() []string {
	var out []string
	for _, b := range table() {
		if b.Sensitive {
			out = append(out, b.Name)
		}
	}
	sort.Strings(out)
	return out
}
