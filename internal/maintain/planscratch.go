package maintain

import (
	"sort"
	"strings"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/view"
)

// PlanScratch caches a batch's geometric preparation — the generated unit
// list and the optimizer's join-site/view-home solution — keyed by the
// delta's chunk footprint. Replay-shaped workloads (the PTF correlated and
// periodic pointings) present the same delta chunk-key set batch after
// batch, and at scale triple generation plus the optimizer solve dominate
// per-batch maintenance cost; the scratch pays that cost once per distinct
// footprint and replays the answer.
//
// Exactness: with cell pruning off, the unit set is a pure function of the
// predicate geometry, the delta chunk-key set, and the base chunk-key set —
// chunk contents never matter. The footprint captures the delta side; a
// base-generation counter (bumped whenever a committed batch adds chunk
// keys to the base, and on any deletion) guards the base side, and a
// placement counter guards SetPlacements. A cached entry is reused only
// when both counters still match; anything else is a miss that re-solves.
// Join sites and view homes are placement policy, not correctness — any
// assignment yields the same view — but the transfer list is rebuilt
// against the live catalog on every reuse, so chunks that migrated since
// the solve still ship from their current homes. Under cell pruning the
// unit set depends on chunk contents (bounding boxes), so the scratch
// disables itself.
type PlanScratch struct {
	cap      int
	entries  map[string]*scratchEntry
	order    []string // insertion order, for eviction
	baseVer  int64
	placeVer int64

	hits, misses int64
}

// scratchUnit is one cached unit: the pair's chunk keys, which sides are
// delta chunks, and the affected view chunks. The delta array's per-batch
// namespace is re-bound at reuse time.
type scratchUnit struct {
	p, q   array.ChunkKey
	pd, qd bool
	both   bool
	views  []array.ChunkKey
}

type scratchEntry struct {
	baseVer, placeVer int64
	units             []scratchUnit
	joinSite          []int
	viewHome          map[array.ChunkKey]int
}

// DefaultPlanScratchCap bounds the number of cached footprints. Replay
// workloads cycle through a handful of distinct footprints; fresh-slab
// workloads never revalidate an entry, so a small cap keeps the scratch
// from hoarding unit lists it will never reuse.
const DefaultPlanScratchCap = 8

// NewPlanScratch returns an empty scratch (cap <= 0 uses the default).
func NewPlanScratch(capacity int) *PlanScratch {
	if capacity <= 0 {
		capacity = DefaultPlanScratchCap
	}
	return &PlanScratch{cap: capacity, entries: make(map[string]*scratchEntry)}
}

// PlanScratchStats counts footprint reuses versus solves.
type PlanScratchStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats snapshots the reuse counters. The scratch is only touched under the
// owning maintainer's batch serialization, so no locking is needed.
func (s *PlanScratch) Stats() PlanScratchStats {
	if s == nil {
		return PlanScratchStats{}
	}
	return PlanScratchStats{Hits: s.hits, Misses: s.misses}
}

// Invalidate marks every cached entry stale against the base chunk-key set.
func (s *PlanScratch) Invalidate() { s.baseVer++ }

// InvalidatePlacement marks every cached entry stale against the placement
// strategies.
func (s *PlanScratch) InvalidatePlacement() { s.placeVer++ }

// footprint builds the cache key from the delta chunk keys; order
// insensitive.
func scratchFootprint(keys []array.ChunkKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = string(k)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// lookup returns the cached entry for the footprint when it is still valid,
// counting a hit or miss either way. Stale entries are dropped.
func (s *PlanScratch) lookup(fp string) *scratchEntry {
	e, ok := s.entries[fp]
	if ok && e.baseVer == s.baseVer && e.placeVer == s.placeVer {
		s.hits++
		return e
	}
	if ok {
		s.drop(fp)
	}
	s.misses++
	return nil
}

func (s *PlanScratch) drop(fp string) {
	delete(s.entries, fp)
	for i, k := range s.order {
		if k == fp {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// store caches the generated units and the solved placement for the
// footprint, evicting the oldest entry at capacity.
func (s *PlanScratch) store(fp string, ctx *Context, p *Plan) {
	for len(s.entries) >= s.cap {
		s.drop(s.order[0])
	}
	e := &scratchEntry{
		baseVer:  s.baseVer,
		placeVer: s.placeVer,
		units:    make([]scratchUnit, len(ctx.Units)),
		joinSite: make([]int, len(ctx.Units)),
		viewHome: make(map[array.ChunkKey]int, len(p.ViewHome)),
	}
	for i, u := range ctx.Units {
		e.units[i] = scratchUnit{
			p: u.P.Key, q: u.Q.Key,
			pd: ctx.IsDelta(u.P), qd: ctx.IsDelta(u.Q),
			both: u.BothDirections, views: u.Views,
		}
		e.joinSite[i] = p.JoinSite[i]
	}
	for v, j := range p.ViewHome {
		e.viewHome[v] = j
	}
	if _, ok := s.entries[fp]; !ok {
		s.order = append(s.order, fp)
	}
	s.entries[fp] = e
}

// rebuildUnits materializes the cached unit list against a fresh batch's
// delta namespace.
func (e *scratchEntry) rebuildUnits(baseName, deltaName string) []view.Unit {
	units := make([]view.Unit, len(e.units))
	for i, su := range e.units {
		pArr, qArr := baseName, baseName
		if su.pd {
			pArr = deltaName
		}
		if su.qd {
			qArr = deltaName
		}
		units[i] = view.Unit{
			P:              view.ChunkRef{Array: pArr, Key: su.p},
			Q:              view.ChunkRef{Array: qArr, Key: su.q},
			Views:          su.views,
			BothDirections: su.both,
		}
	}
	return units
}

// rebuildPlan assembles an executable plan from the cached solution:
// cached join sites and view homes (hinted for view chunks the solve never
// saw), with the transfer list rebuilt against the live catalog.
func (e *scratchEntry) rebuildPlan(ctx *Context) *Plan {
	return AssemblePlan(ctx, "scratch-reuse",
		func(i int, _ view.Unit) int { return e.joinSite[i] },
		func(v array.ChunkKey) int {
			if home, ok := e.viewHome[v]; ok {
				return home
			}
			return ctx.ViewHomeHint(v)
		})
}
