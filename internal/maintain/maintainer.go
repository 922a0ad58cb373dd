package maintain

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/view"
)

// Maintainer owns one materialized array view on a cluster and applies
// batch updates to it with a chosen planning strategy. It keeps the
// history window across batches so array reassignment can learn the
// workload.
type Maintainer struct {
	cl       *cluster.Cluster
	def      *view.Definition
	planner  Planner
	params   Params
	history  *History
	rng      *rand.Rand
	batchSeq int
	// memo, when non-nil, is the content-addressed join-state cache shared
	// across this maintainer's batches (set by the adaptive layer or
	// SetJoinMemo); Execute consults it per unit.
	memo *JoinMemo
	// scratch, when non-nil, caches unit lists and optimizer solutions per
	// delta footprint (set by the adaptive layer or SetPlanScratch).
	scratch *PlanScratch

	arrayPlacement cluster.Placement
	viewPlacement  cluster.Placement
}

// Report summarizes one maintained batch.
type Report struct {
	Strategy string
	// MaintenanceSeconds is the plan's simulated cost (Eq. 1): the batch's
	// view maintenance time on the modeled cluster.
	MaintenanceSeconds float64
	// OptimizationSeconds is the measured wall-clock time of triple
	// generation plus planning — the Figure 5 quantity.
	OptimizationSeconds float64
	// TripleGenSeconds is the triple-generation share of optimization,
	// common to all strategies (the paper's "baseline" optimization time).
	TripleGenSeconds float64
	// ExecSeconds is the measured wall-clock time of plan execution — the
	// real data movement and join work on whatever fabric the cluster runs
	// on. Compare against MaintenanceSeconds to validate the cost model.
	ExecSeconds  float64
	NumUnits     int
	NumTriples   int
	NumTransfers int
	Plan         *Plan
	Ledger       *cluster.Ledger
	// Trace is the phase-span breakdown of Execute: where ExecSeconds went
	// (validate, snapshot, transfer, join, merge, commit, cleanup) and
	// per-node task busy time.
	Trace *obs.Trace
}

// NewMaintainer wires a maintainer for the given view on the cluster. The
// base array(s) and the materialized view must already be loaded (see
// BuildView).
func NewMaintainer(cl *cluster.Cluster, def *view.Definition, planner Planner, params Params) (*Maintainer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if planner == nil {
		planner = Reassign{}
	}
	if cl.Catalog().Schema(def.Alpha.Name) == nil {
		return nil, fmt.Errorf("maintain: base array %q not loaded", def.Alpha.Name)
	}
	if cl.Catalog().Schema(def.Beta.Name) == nil {
		return nil, fmt.Errorf("maintain: base array %q not loaded", def.Beta.Name)
	}
	// Join pushdown on a remote fabric evaluates the join at the node
	// holding the chunks, which needs the view definition on that side.
	if rf, ok := cl.Fabric().(interface {
		RegisterView(*view.Definition) error
	}); ok {
		if err := rf.RegisterView(def); err != nil {
			return nil, fmt.Errorf("maintain: registering view on fabric: %w", err)
		}
	}
	return &Maintainer{
		cl:             cl,
		def:            def,
		planner:        planner,
		params:         params,
		history:        NewHistory(params.Window),
		rng:            rand.New(rand.NewSource(params.Seed)),
		arrayPlacement: cluster.HashPlacement{},
		viewPlacement:  cluster.HashPlacement{},
	}, nil
}

// SetPlacements overrides the static placement strategies used for new
// chunks by the baseline/differential strategies and fallbacks.
func (m *Maintainer) SetPlacements(arrayP, viewP cluster.Placement) {
	if arrayP != nil {
		m.arrayPlacement = arrayP
	}
	if viewP != nil {
		m.viewPlacement = viewP
	}
	if m.scratch != nil {
		m.scratch.InvalidatePlacement()
	}
}

// SetPlanScratch attaches (or detaches, with nil) a per-footprint cache of
// generated units and solved placements (see PlanScratch).
func (m *Maintainer) SetPlanScratch(s *PlanScratch) { m.scratch = s }

// SetJoinMemo attaches (or detaches, with nil) a cross-batch join-state
// cache. Pass a shared memo to let several maintainers — e.g. the batch
// path and the streaming graph — reuse each other's join results.
func (m *Maintainer) SetJoinMemo(memo *JoinMemo) { m.memo = memo }

// Planner returns the active planning strategy.
func (m *Maintainer) Planner() Planner { return m.planner }

// History exposes the maintained history window (for inspection/tests).
func (m *Maintainer) History() *History { return m.history }

// BuildView materializes the view from the cluster-resident base array(s)
// and distributes it with the given placement. This is the eager initial
// evaluation of the view definition.
func BuildView(cl *cluster.Cluster, def *view.Definition, p cluster.Placement) error {
	alpha, err := cl.Gather(def.Alpha.Name)
	if err != nil {
		return err
	}
	beta := alpha
	if !def.SelfJoin() {
		beta, err = cl.Gather(def.Beta.Name)
		if err != nil {
			return err
		}
	}
	v, err := view.Materialize(def, alpha, beta)
	if err != nil {
		return err
	}
	return cl.LoadArray(v, p)
}

// ApplyBatch incrementally maintains the view under a batch of insertions
// to the base array (self-join views). The delta must be disjoint from the
// current base content at cell granularity.
func (m *Maintainer) ApplyBatch(delta *array.Array) (*Report, error) {
	if !m.def.SelfJoin() {
		return nil, fmt.Errorf("maintain: view %s joins two arrays; use ApplyBatch2", m.def.Name)
	}
	return m.apply(delta, nil, false, false, true)
}

// ApplyDelete incrementally maintains the view under a batch of deletions
// from the base array (self-join views): the staged cells must exist in
// the base (see view.SubsetOf) and every aggregate must be retractable
// (MIN/MAX are not).
func (m *Maintainer) ApplyDelete(del *array.Array) (*Report, error) {
	if !m.def.SelfJoin() {
		return nil, fmt.Errorf("maintain: view %s joins two arrays; deletions are supported for self joins", m.def.Name)
	}
	if !m.def.Retractable() {
		return nil, fmt.Errorf("maintain: view %s has non-retractable aggregates (MIN/MAX)", m.def.Name)
	}
	return m.apply(del, nil, true, false, true)
}

// ApplyBatch2 maintains a two-array view under simultaneous insertions to
// α and/or β (either may be nil).
func (m *Maintainer) ApplyBatch2(dAlpha, dBeta *array.Array) (*Report, error) {
	if m.def.SelfJoin() {
		return nil, fmt.Errorf("maintain: view %s is a self join; use ApplyBatch", m.def.Name)
	}
	return m.apply(dAlpha, dBeta, false, false, true)
}

// apply runs one staged maintenance batch. ephemeral batches — the
// adaptive layer's pending-log materializations — skip the planner's
// history window: their pairs replay activity from original batches in
// bulk, and letting a large coalesced drain haunt the window would inflate
// every subsequent solve's scoring pass. retire marks the batch's durable
// commit barrier as consuming one top-level input batch (see
// Context.RetireOnCommit); ephemeral replays pass false.
func (m *Maintainer) apply(dAlpha, dBeta *array.Array, deleting, ephemeral, retire bool) (*Report, error) {
	m.batchSeq++
	deltaAlphaName := fmt.Sprintf("%s#delta%d", m.def.Alpha.Name, m.batchSeq)
	deltaBetaName := deltaAlphaName
	if !m.def.SelfJoin() {
		deltaBetaName = fmt.Sprintf("%s#delta%d", m.def.Beta.Name, m.batchSeq)
	}

	// Stage the delta chunks at the coordinator.
	if err := m.stage(deltaAlphaName, m.def.Alpha, dAlpha); err != nil {
		return nil, err
	}
	if !m.def.SelfJoin() {
		if err := m.stage(deltaBetaName, m.def.Beta, dBeta); err != nil {
			return nil, err
		}
	}

	// Footprint cache: with cell pruning off, the unit set and the solved
	// placement are pure functions of the delta chunk-key footprint and the
	// base chunk-key generation, so replayed footprints skip triple
	// generation and the optimizer solve entirely. Deletions shrink the
	// base key set, so they bypass and invalidate the scratch.
	useScratch := m.scratch != nil && m.def.SelfJoin() && !deleting && !m.params.CellPruning
	var footprint string
	var cached *scratchEntry
	var newBaseKeys bool
	if useScratch {
		footprint = scratchFootprint(dAlpha.ChunkKeys())
		cached = m.scratch.lookup(footprint)
		for _, k := range dAlpha.ChunkKeys() {
			if _, ok := m.cl.Catalog().Home(m.def.Alpha.Name, k); !ok {
				newBaseKeys = true
				break
			}
		}
	}

	// Preprocessing: generate the update triples from catalog metadata.
	tripleStart := time.Now()
	var units []view.Unit
	var err error
	if cached != nil {
		units = cached.rebuildUnits(m.def.Alpha.Name, deltaAlphaName)
	} else {
		gen := &view.UnitGen{
			Catalog: m.cl.Catalog(), Def: m.def,
			BaseAlpha: m.def.Alpha.Name, BaseBeta: m.def.Beta.Name,
			DeltaAlpha: deltaAlphaName, DeltaBeta: deltaBetaName,
			CellPruning: m.params.CellPruning,
		}
		units, err = gen.Generate()
		if err != nil {
			return nil, err
		}
	}
	tripleGen := time.Since(tripleStart)

	params := m.params
	params.Seed = m.rng.Int63() // fresh randomized order per batch, reproducibly
	ctx, err := NewContext(m.cl, m.def, units,
		m.def.Alpha.Name, m.def.Beta.Name, deltaAlphaName, deltaBetaName,
		m.def.Name, m.history, params)
	if err != nil {
		return nil, err
	}
	ctx.ArrayPlacement = m.arrayPlacement
	ctx.ViewPlacement = m.viewPlacement
	ctx.Deleting = deleting
	ctx.RetireOnCommit = retire
	ctx.JoinMemo = m.memo

	planStart := time.Now()
	var plan *Plan
	if cached != nil {
		plan = cached.rebuildPlan(ctx)
	} else {
		plan, err = m.planner.Plan(ctx)
		if err != nil {
			return nil, err
		}
	}
	planning := time.Since(planStart)

	ctx.Trace = obs.NewTrace()
	execStart := time.Now()
	ledger, err := Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	execWall := time.Since(execStart)
	if !ephemeral {
		m.history.Record(ctx)
	}
	if useScratch {
		// A batch that added chunk keys to the base invalidates every
		// cached footprint: they solved against a base that no longer
		// exists (and its own solution is equally stale, so it is not
		// stored). Pure-overwrite batches — the replay pattern — leave the
		// key set intact and their solutions reusable.
		if newBaseKeys {
			m.scratch.Invalidate()
		} else if cached == nil {
			m.scratch.store(footprint, ctx, plan)
		}
	}
	if m.scratch != nil && deleting {
		m.scratch.Invalidate()
	}

	nTriples := 0
	for _, u := range units {
		nTriples += len(u.Views)
	}
	return &Report{
		Strategy:            m.planner.Name(),
		MaintenanceSeconds:  ledger.Cost(),
		OptimizationSeconds: (tripleGen + planning).Seconds(),
		TripleGenSeconds:    tripleGen.Seconds(),
		ExecSeconds:         execWall.Seconds(),
		NumUnits:            len(units),
		NumTriples:          nTriples,
		NumTransfers:        plan.NumTransfers(),
		Plan:                plan,
		Ledger:              ledger,
		Trace:               ctx.Trace,
	}, nil
}

// stage registers a per-batch delta namespace and stages the delta's
// chunks at the coordinator, validating the disjoint-insert precondition
// at chunk metadata level (cell-level validation is the caller's job; see
// view.DisjointInsert).
func (m *Maintainer) stage(deltaName string, base *array.Schema, delta *array.Array) error {
	if delta == nil {
		delta = array.New(base)
	}
	schema := *base
	schema.Name = deltaName
	if err := m.cl.Catalog().Register(&schema); err != nil {
		return err
	}
	var chunks []*array.Chunk
	delta.EachChunk(func(c *array.Chunk) bool {
		chunks = append(chunks, c)
		return true
	})
	return m.cl.StageDelta(deltaName, chunks)
}
