package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/grid"
	"repro/internal/server/apitypes"
	"repro/internal/units"
	"repro/internal/workload"
)

// Input streams: every generated input draws from rng(seed, stream, ...),
// so the same seed always yields the same inputs and no two inputs share a
// stream.
const (
	streamSweep = iota + 1
	streamJobGates
	streamJob
	streamPool
	streamSchedule
	streamOptimize
	streamSample
)

// rng returns a generator for one input, keyed by the run seed and a path
// of indices.
func rng(seed int64, path ...int) *rand.Rand {
	h := splitmix(uint64(seed))
	for _, p := range path {
		h = splitmix(h ^ uint64(p))
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Spaces keep their categorical axes fixed — which nodes, grids and
// (strategy, integration) pairs — so every seed asks for the same kind and
// amount of work; the seed moves the numeric axes (gate counts, lifetimes),
// which makes every operation's inputs distinct. Every space spans both
// division strategies over all eight integration technologies: 15 pairs
// once the strategy-independent 2D design is counted once.
var bothStrategies = []string{"homogeneous", "heterogeneous"}

// jitter draws n values in [lo, hi), rounded to a multiple of step.
func jitter(r *rand.Rand, n int, lo, hi, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round((lo+r.Float64()*(hi-lo))/step) * step
	}
	return out
}

// sweepSpace is call i of the sweep workload: 4 nodes × 50 gate sizes ×
// 4 use grids × 40 lifetimes × 15 pairs = 480,000 candidates.
func sweepSpace(e *env, i int) apitypes.SpaceSpec {
	r := rng(e.seed, streamSweep, i)
	return apitypes.SpaceSpec{
		Name:          fmt.Sprintf("sweep%d", i),
		Strategies:    bothStrategies,
		NodesNM:       []int{5, 7, 10, 14},
		Gates:         jitter(r, e.scaled(50), 2e9, 20e9, 1e6),
		FabLocations:  []string{"taiwan"},
		UseLocations:  []string{"usa", "europe", "india", "california"},
		LifetimeYears: jitter(r, e.scaled(40), 1, 20, 0.01),
	}
}

// jobSpace is job k of client c. Durable jobs span 6 nodes × 8 gate sizes
// × 4 use grids × 16 lifetimes × 15 pairs = 46,080 candidates; fleet jobs
// take 4 gate sizes, 23,040 candidates. Gate sizes come from a pool of 64
// per run, so jobs share embodied designs; lifetimes are drawn per job, so
// whole evaluations still miss the memo cache. Only the lifetime axis
// scales, which keeps scaled fleet jobs large enough to shard.
func jobSpace(e *env, fleet bool, c, k int) apitypes.SpaceSpec {
	pool := jitter(rng(e.seed, streamJobGates), 64, 2e9, 20e9, 1e6)
	r := rng(e.seed, streamJob, c, k)
	gates := 8
	if fleet {
		gates = 4
	}
	idx := r.Perm(len(pool))[:gates]
	sort.Ints(idx)
	spec := apitypes.SpaceSpec{
		Name:          fmt.Sprintf("job%d-%d", c, k),
		Strategies:    bothStrategies,
		NodesNM:       []int{5, 7, 10, 12, 14, 16},
		FabLocations:  []string{"taiwan"},
		UseLocations:  []string{"usa", "europe", "india", "california"},
		LifetimeYears: jitter(r, e.scaled(16), 1, 20, 0.01),
	}
	for _, i := range idx {
		spec.Gates = append(spec.Gates, pool[i])
	}
	return spec
}

// optimizeSpace is request i of the optimize workload: 100 gate sizes × 8
// nodes × 6 fabs × 9 use grids × 50 lifetimes × 15 pairs = 3.24×10⁷
// candidates over 7.2×10⁴ embodied designs. Its axes follow the
// optimizer's pinned reference space — its nodes, fab and use grids,
// design sizes in half-billion-gate steps and lifetimes in one-year steps
// — and the seed shifts the sizes and lifetimes by less than a tenth of a
// step, so every request is proven optimal well inside the server's
// default budget at about the same cost.
func optimizeSpace(e *env, i int) apitypes.SpaceSpec {
	r := rng(e.seed, streamOptimize, i)
	gates := make([]float64, e.scaled(100))
	g0 := 1 + 0.05*r.Float64()
	for k := range gates {
		gates[k] = math.Round((g0+0.5*float64(k))*1e3) * 1e6
	}
	years := make([]float64, e.scaled(50))
	y0 := 1 + 0.1*r.Float64()
	for k := range years {
		years[k] = math.Round((y0+float64(k))*100) / 100
	}
	return apitypes.SpaceSpec{
		Name:         fmt.Sprintf("opt%d", i),
		Strategies:   bothStrategies,
		NodesNM:      []int{3, 5, 7, 10, 12, 14, 16, 28},
		Gates:        gates,
		FabLocations: []string{"taiwan", "usa", "europe", "china", "india", "norway"},
		UseLocations: []string{"usa", "europe", "india", "china", "taiwan",
			"california", "norway", "world", "renewable"},
		LifetimeYears: years,
	}
}

// poolDesign is one variant of a shipped design, ready to POST.
type poolDesign struct {
	design *design.Design
	json   []byte // the design document
	body   []byte // {"design": ...}, the /v1/evaluate request body
}

// The grids design variants are made and used in.
var (
	poolFabs = []grid.Location{"taiwan", "south-korea", "japan", "china", "arizona", "ireland"}
	poolUses = []grid.Location{"usa", "europe", "india", "california", "norway", "world"}
)

// designPool draws n valid variants of designs/*.json. Variant i varies
// shipped design i mod 8 — each die's size, the fab grid and the use grid
// — so every variant is a distinct model input, and the most requested
// variants (the lowest indices) cover every shipped design whatever the
// seed. Variants the model rejects are redrawn.
func designPool(e *env, m *core.Model, n int) ([]poolDesign, error) {
	paths, err := filepath.Glob(filepath.Join(e.root, "designs", "*.json"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no designs/*.json under %s", e.root)
	}
	var bases []design.Design
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d design.Design
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		bases = append(bases, d)
	}
	w, eff := defaultWorkload()
	r := rng(e.seed, streamPool)
	out := make([]poolDesign, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 50*n {
			return nil, fmt.Errorf("only %d of %d design variants are valid", len(out), n)
		}
		base := bases[len(out)%len(bases)]
		d := base
		d.Name = fmt.Sprintf("%s-v%d", base.Name, len(out))
		d.Dies = append([]design.Die(nil), base.Dies...)
		grow := 0.0
		for k := range d.Dies {
			f := 0.8 + 0.4*r.Float64()
			grow = math.Max(grow, f)
			d.Dies[k].Gates = math.Round(d.Dies[k].Gates * f)
			d.Dies[k].AreaMM2 = math.Round(d.Dies[k].AreaMM2*f*100) / 100
		}
		d.PackageAreaMM2 = math.Round(d.PackageAreaMM2*grow*100) / 100
		d.FabLocation = poolFabs[r.Intn(len(poolFabs))]
		d.UseLocation = poolUses[r.Intn(len(poolUses))]
		if _, err := m.Total(&d, w, eff); err != nil {
			continue
		}
		doc, err := json.Marshal(&d)
		if err != nil {
			return nil, err
		}
		body := append(append([]byte(`{"design":`), doc...), '}')
		out = append(out, poolDesign{design: &d, json: doc, body: body})
	}
	return out, nil
}

// defaultWorkload is the use-phase profile a request without a workload
// evaluates under.
func defaultWorkload() (workload.Workload, units.Efficiency) {
	return (*apitypes.WorkloadSpec)(nil).Resolve()
}

// probeItem is one (design, workload) pair the core probe evaluates.
type probeItem struct {
	d   *design.Design
	w   workload.Workload
	eff units.Efficiency
}

// probeSpace samples up to n distinct candidates of a space for the core
// probe.
func probeSpace(e *env, spec apitypes.SpaceSpec, n int) error {
	space, err := spec.Space()
	if err != nil {
		return err
	}
	it, err := space.Iter()
	if err != nil {
		return err
	}
	cur := it.Cursor()
	r := rng(e.seed, streamSample)
	seen := make(map[int]bool, n)
	for len(seen) < min(n, it.Len()) {
		i := r.Intn(it.Len())
		if seen[i] {
			continue
		}
		seen[i] = true
		c, err := cur.At(i)
		if err != nil {
			return err
		}
		e.probe = append(e.probe, probeItem{d: c.Design, w: c.Workload, eff: c.Eff})
	}
	return nil
}
