package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/hybrid"
	"repro/internal/xpath"
)

// This file is the observed-latency Auto selector: the replacement for
// driving every Auto decision off the single §5 constant. The paper's
// heuristic ("use the hybrid run when one label in the query has a low
// count") is a fine cold-start rule, but it is blind to what the
// machine actually measures — and Auto historically never even
// considered the TDSTA engine for restricted-fragment queries. The
// selector keys observations by canonical query *shape* (the
// normalized step/axis/label skeleton, i.e. the parsed path printed
// back), keeps an EWMA of observed latency and visited counts per
// eligible strategy, and picks the argmin with a deterministic
// epsilon-greedy exploration cadence so estimates never go stale.
// Decisions and feedback are tiny and allocation-free on the warm
// path: one lock-free map hit, one mutex'd argmin over at most three
// candidates, and one EWMA store at cursor close.
//
// A selector's estimates are measurements of one document, so the
// service keeps one per resident document, whichever generation a
// request reads: shapes, EWMAs, wins and the exploration counter carry
// across patches, and a reloaded document starts cold. The only facts a
// patch can change under a shape, its chain labels' counts, are not
// stored: every decision probes them in the generation it runs on. The
// design follows janus-datalog's statistics-free planner argument: a
// tiny, explainable online model per shape ("which strategy won and
// why" is always reportable) beats both a static constant and an opaque
// global regression.

// DefaultAutoEpsilon is the exploration floor: one in 1/epsilon warm
// decisions per shape re-measures a non-best candidate.
const DefaultAutoEpsilon = 0.05

// explorePeriod is that floor as a deterministic cadence: every 20th
// decision of a shape is an exploration tick.
const explorePeriod = 1 / DefaultAutoEpsilon

// exploreLatencyBound caps how much slower (by EWMA estimate) than the
// incumbent best a candidate may be and still earn exploration ticks.
// Within the bound a candidate is plausibly competitive and gets
// re-measured; past it, exploration would just periodically re-run a
// known-bad engine.
const exploreLatencyBound = 8

// ewmaAlpha weights new observations; 0.25 converges in a handful of
// runs while still smoothing scheduler noise.
const ewmaAlpha = 0.25

// AutoConfig configures the Auto selector.
type AutoConfig struct {
	// Adaptive enables the observed-latency model; every serving engine
	// runs with it on. False is the reference arm of
	// BenchmarkAutoSelector and the determinism tests: shapes and
	// observations are tracked identically, but every decision is the
	// paper's §5 static heuristic.
	Adaptive bool
}

// DefaultAutoConfig is what every engine starts with: adaptive.
func DefaultAutoConfig() AutoConfig {
	return AutoConfig{Adaptive: true}
}

// Candidate slots. A dense array indexed by slot keeps the per-shape
// state flat and the decision loop branch-predictable.
const (
	slotOptimized = iota // ASTA "Opt. Eval." (always eligible; stepwise fallback rides here)
	slotHybrid           // start-anywhere run (§4.4), chain queries only
	slotTDSTA            // minimized deterministic TDSTA + topdown_jump, restricted fragment only
	numSlots
)

// slotStrategy maps a candidate slot to the strategy Auto dispatches.
var slotStrategy = [numSlots]Strategy{Optimized, Hybrid, TopDownDet}

// Decision reasons, reported in explain profiles, /stats and the
// flight recorder. Constants so attaching one to a decision never
// allocates.
const (
	// ReasonStatic: Adaptive is false (reference arm); the §5 count
	// heuristic decided.
	ReasonStatic = "static-heuristic"
	// ReasonShortCircuit: a chain label is absent from the document, so
	// the answer is empty by construction — no engine runs at all.
	ReasonShortCircuit = "absent-chain-label"
	// ReasonCold: no candidate has been measured yet; the §5 heuristic
	// decides until observations arrive.
	ReasonCold = "cold-heuristic"
	// ReasonProbe: some candidate has never been measured; it runs once
	// so the argmin compares real numbers, not guesses.
	ReasonProbe = "probe-unmeasured"
	// ReasonExplore: the epsilon cadence fired; the least-observed
	// non-best candidate re-measures so estimates cannot go stale.
	ReasonExplore = "explore"
	// ReasonExploit: the candidate with the lowest EWMA observed
	// latency won.
	ReasonExploit = "min-ewma-latency"
	// ReasonOnly: only one strategy is eligible for this shape.
	ReasonOnly = "single-candidate"
)

// ewma is one candidate's running estimate.
type ewma struct {
	n         uint64  // observations folded in
	latencyNS float64 // EWMA of observed end-to-end latency
	visited   float64 // EWMA of nodes visited
}

func (w *ewma) add(latencyNS float64, visited int) {
	if w.n == 0 {
		w.latencyNS = latencyNS
		w.visited = float64(visited)
	} else {
		w.latencyNS += ewmaAlpha * (latencyNS - w.latencyNS)
		w.visited += ewmaAlpha * (float64(visited) - w.visited)
	}
	w.n++
}

// shapeStats is the selector's per-shape state. The immutable facts —
// functions of the query alone: shape string, chain-fragment membership,
// eligibility mask — are computed once at first sight; the mutable
// model lives behind mu.
type shapeStats struct {
	shape string
	// chain: inside the hybrid chain fragment, so decisions are given the
	// chain labels' counts for the §5 heuristic and the absent-label
	// short circuit.
	chain    bool
	eligible [numSlots]bool

	mu sync.Mutex
	// n counts decisions (drives the deterministic exploration
	// cadence); est/wins are per-candidate model state, empty the
	// decisions short-circuited to EmptyChain.
	n          uint64
	est        [numSlots]ewma
	wins       [numSlots]uint64
	empty      uint64
	lastPick   Strategy
	lastReason string
	// Estimate-quality accounting: |observed-estimated|/observed summed
	// over observations that had a prior estimate to be wrong about.
	errRelSum float64
	errCount  uint64
}

// autoDecision is one routing decision: the strategy to dispatch, the
// slot feedback should credit, and the (constant) reason string.
type autoDecision struct {
	strategy Strategy
	slot     int
	reason   string
}

// Selector is the Auto decision state of one document.
type Selector struct {
	cfg AutoConfig

	// byQuery short-circuits raw query text to its shape state so the
	// warm path never re-canonicalizes; byShape is the canonical table
	// (several query spellings can share one shape).
	byQuery sync.Map // string -> *shapeStats
	mu      sync.Mutex
	byShape map[string]*shapeStats

	decisions     atomic.Uint64
	explorations  atomic.Uint64
	shortCircuits atomic.Uint64
	observations  atomic.Uint64
}

// NewSelector returns a cold selector.
func NewSelector(cfg AutoConfig) *Selector {
	return &Selector{cfg: cfg, byShape: make(map[string]*shapeStats)}
}

// shapeFor resolves a query to its shape state, creating it on first
// sight. The candidate set is asked of the engines' own fragment tests,
// so the selector never routes a query to an engine that refuses it.
// The fast path is one lock-free sync.Map hit keyed by the raw query
// text.
func (sel *Selector) shapeFor(query string, p *xpath.Path) *shapeStats {
	if v, ok := sel.byQuery.Load(query); ok {
		return v.(*shapeStats)
	}
	shape := p.String()
	sel.mu.Lock()
	st, ok := sel.byShape[shape]
	if !ok {
		chain := hybrid.CheckChain(p) == nil
		st = &shapeStats{shape: shape, chain: chain}
		st.eligible[slotOptimized] = true
		st.eligible[slotHybrid] = chain
		st.eligible[slotTDSTA] = compile.CheckTDSTA(p) == nil
		sel.byShape[shape] = st
	}
	sel.mu.Unlock()
	sel.byQuery.Store(query, st)
	return st
}

// staticPick is the paper's §5 heuristic: hybrid when the rarest chain
// label's count is below hybridCountFraction of the most frequent
// one's, optimized otherwise. It is the cold-shape fallback, and the
// whole decision on the Adaptive=false reference arm.
func (st *shapeStats) staticPick(min, max int) autoDecision {
	if st.chain && max > 0 &&
		float64(min) <= hybridCountFraction*float64(max) {
		return autoDecision{strategy: Hybrid, slot: slotHybrid}
	}
	return autoDecision{strategy: Optimized, slot: slotOptimized}
}

// decide picks the strategy for one Auto evaluation of shape st; min
// and max are a chain's label counts in the generation being queried.
func (sel *Selector) decide(st *shapeStats, min, max int) autoDecision {
	sel.decisions.Add(1)
	if st.chain && min == 0 {
		// A chain with an absent label selects nothing: answer empty
		// without running any engine, and report it as a distinct
		// zero-cost outcome so it cannot pollute the Hybrid estimates.
		sel.shortCircuits.Add(1)
		st.mu.Lock()
		st.n++
		st.empty++
		st.lastPick, st.lastReason = EmptyChain, ReasonShortCircuit
		st.mu.Unlock()
		return autoDecision{strategy: EmptyChain, slot: -1, reason: ReasonShortCircuit}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.n++

	var d autoDecision
	switch {
	case !sel.cfg.Adaptive:
		d = st.staticPick(min, max)
		d.reason = ReasonStatic
	default:
		d = st.adaptivePick(sel, min, max)
	}
	if d.reason == ReasonExplore {
		sel.explorations.Add(1)
	}
	st.wins[d.slot]++
	st.lastPick, st.lastReason = d.strategy, d.reason
	return d
}

// adaptivePick is the observed-latency model. Caller holds st.mu.
func (st *shapeStats) adaptivePick(sel *Selector, min, max int) autoDecision {
	// Candidate census: how many strategies could serve this shape, and
	// which of them have never been measured.
	nElig, nMeasured := 0, 0
	firstUnmeasured, only := -1, -1
	for s := 0; s < numSlots; s++ {
		if !st.eligible[s] {
			continue
		}
		nElig++
		only = s
		if st.est[s].n > 0 {
			nMeasured++
		} else if firstUnmeasured < 0 {
			firstUnmeasured = s
		}
	}
	if nElig == 1 {
		return autoDecision{strategy: slotStrategy[only], slot: only, reason: ReasonOnly}
	}
	if nMeasured == 0 {
		// Nothing observed yet: the paper's heuristic decides, and its
		// run becomes the first observation.
		d := st.staticPick(min, max)
		d.reason = ReasonCold
		return d
	}
	if firstUnmeasured >= 0 {
		// Measure every candidate once before trusting any argmin.
		return autoDecision{strategy: slotStrategy[firstUnmeasured], slot: firstUnmeasured, reason: ReasonProbe}
	}
	best := st.argminLatency()
	if st.n%explorePeriod == 0 {
		// Exploration tick: re-measure the least-observed non-best
		// candidate. Deterministic (a counter, not a RNG) so decisions
		// replay exactly and stay explainable. Candidates already
		// measured hopelessly slower than the incumbent are not worth
		// the tax (re-running a 200x-slower engine every Nth query
		// would dominate the shape's cost); they get their retry when
		// the document is reloaded and its selector starts over.
		bound := exploreLatencyBound * st.est[best].latencyNS
		probe := -1
		for s := 0; s < numSlots; s++ {
			if !st.eligible[s] || s == best || st.est[s].latencyNS > bound {
				continue
			}
			if probe < 0 || st.est[s].n < st.est[probe].n {
				probe = s
			}
		}
		if probe >= 0 {
			return autoDecision{strategy: slotStrategy[probe], slot: probe, reason: ReasonExplore}
		}
	}
	return autoDecision{strategy: slotStrategy[best], slot: best, reason: ReasonExploit}
}

// argminLatency returns the eligible slot with the lowest EWMA
// latency. Caller holds st.mu; every eligible slot has n>0.
func (st *shapeStats) argminLatency() int {
	best := -1
	for s := 0; s < numSlots; s++ {
		if !st.eligible[s] {
			continue
		}
		if best < 0 || st.est[s].latencyNS < st.est[best].latencyNS {
			best = s
		}
	}
	return best
}

// observe folds one completed evaluation back into the model. It runs
// at cursor close (so paged and streamed evaluations report their full
// cost), on the Adaptive=false reference arm too: both arms pay
// identical bookkeeping, so the benchmark gate compares pure decision
// quality.
func (sel *Selector) observe(st *shapeStats, slot int, elapsed time.Duration, visited int) {
	if st == nil || slot < 0 || slot >= numSlots {
		return
	}
	sel.observations.Add(1)
	lat := float64(elapsed)
	st.mu.Lock()
	w := &st.est[slot]
	if w.n > 0 && lat > 0 {
		diff := w.latencyNS - lat
		if diff < 0 {
			diff = -diff
		}
		st.errRelSum += diff / lat
		st.errCount++
	}
	w.add(lat, visited)
	st.mu.Unlock()
}

// explain renders one decision with its candidate estimates for the
// ?explain=1 select span. Detail path only — it allocates.
func (sel *Selector) explain(st *shapeStats, d autoDecision, min, max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "auto shape=%s pick=%s reason=%s", st.shape, d.strategy, d.reason)
	if d.strategy == EmptyChain {
		fmt.Fprintf(&b, " min_count=0 max_count=%d", max)
		return b.String()
	}
	st.mu.Lock()
	for s := 0; s < numSlots; s++ {
		if !st.eligible[s] {
			continue
		}
		w := st.est[s]
		if w.n == 0 {
			fmt.Fprintf(&b, " %s=unmeasured", slotStrategy[s])
		} else {
			fmt.Fprintf(&b, " %s=%.0fus/n%d", slotStrategy[s], w.latencyNS/1e3, w.n)
		}
	}
	st.mu.Unlock()
	if st.chain {
		fmt.Fprintf(&b, " min_count=%d max_count=%d", min, max)
	}
	return b.String()
}

// AutoCandidate is one strategy's model state for a shape, as reported
// in SelectorStats.
type AutoCandidate struct {
	Strategy      string  `json:"strategy"`
	Observations  uint64  `json:"observations"`
	EWMALatencyUS float64 `json:"ewma_latency_us"`
	EWMAVisited   float64 `json:"ewma_visited"`
	Wins          uint64  `json:"wins"`
}

// AutoShape is one tracked query shape: who has been winning and why.
type AutoShape struct {
	Shape        string          `json:"shape"`
	Decisions    uint64          `json:"decisions"`
	LastStrategy string          `json:"last_strategy"`
	LastReason   string          `json:"last_reason"`
	Candidates   []AutoCandidate `json:"candidates"`
}

// SelectorStats is the Auto selector's observable state: the /stats
// payload and the source of the xpqd_auto_* Prometheus families.
type SelectorStats struct {
	Adaptive      bool   `json:"adaptive"`
	Shapes        int    `json:"shapes"`
	Decisions     uint64 `json:"decisions"`
	Explorations  uint64 `json:"explorations"`
	ShortCircuits uint64 `json:"short_circuits"`
	Observations  uint64 `json:"observations"`
	// ExplorationRate = Explorations/Decisions; EstimateErrorPct is the
	// mean |observed-estimated|/observed latency error, in percent —
	// how honest the model's numbers are.
	ExplorationRate  float64           `json:"exploration_rate"`
	EstimateErrorPct float64           `json:"estimate_error_pct"`
	WinsByStrategy   map[string]uint64 `json:"wins_by_strategy,omitempty"`
	// TopShapes lists the most-decided shapes (capped) with their
	// per-candidate estimates.
	TopShapes []AutoShape `json:"top_shapes,omitempty"`

	// Raw accumulators for summing selectors (AddTo + Finalize).
	ErrRelSum float64 `json:"-"`
	ErrCount  uint64  `json:"-"`
}

// maxTopShapes caps the per-snapshot shape table so /stats stays
// bounded on adversarial query streams.
const maxTopShapes = 16

// Stats snapshots the selector.
func (sel *Selector) Stats() SelectorStats {
	s := SelectorStats{
		Adaptive:       sel.cfg.Adaptive,
		Decisions:      sel.decisions.Load(),
		Explorations:   sel.explorations.Load(),
		ShortCircuits:  sel.shortCircuits.Load(),
		Observations:   sel.observations.Load(),
		WinsByStrategy: map[string]uint64{},
	}
	sel.mu.Lock()
	shapes := make([]*shapeStats, 0, len(sel.byShape))
	for _, st := range sel.byShape {
		shapes = append(shapes, st)
	}
	sel.mu.Unlock()
	s.Shapes = len(shapes)
	for _, st := range shapes {
		st.mu.Lock()
		as := AutoShape{
			Shape:        st.shape,
			Decisions:    st.n,
			LastStrategy: st.lastPick.String(),
			LastReason:   st.lastReason,
		}
		for slot := 0; slot < numSlots; slot++ {
			if !st.eligible[slot] {
				continue
			}
			w := st.est[slot]
			as.Candidates = append(as.Candidates, AutoCandidate{
				Strategy:      slotStrategy[slot].String(),
				Observations:  w.n,
				EWMALatencyUS: w.latencyNS / 1e3,
				EWMAVisited:   w.visited,
				Wins:          st.wins[slot],
			})
			if st.wins[slot] > 0 {
				s.WinsByStrategy[slotStrategy[slot].String()] += st.wins[slot]
			}
		}
		if st.empty > 0 {
			s.WinsByStrategy[EmptyChain.String()] += st.empty
		}
		s.ErrRelSum += st.errRelSum
		s.ErrCount += st.errCount
		st.mu.Unlock()
		s.TopShapes = append(s.TopShapes, as)
	}
	s.Finalize()
	return s
}

// AddTo accumulates s into dst (the service sums its documents'
// selectors). Call Finalize on dst once every selector is added.
func (s SelectorStats) AddTo(dst *SelectorStats) {
	dst.Adaptive = s.Adaptive
	dst.Shapes += s.Shapes
	dst.Decisions += s.Decisions
	dst.Explorations += s.Explorations
	dst.ShortCircuits += s.ShortCircuits
	dst.Observations += s.Observations
	dst.ErrRelSum += s.ErrRelSum
	dst.ErrCount += s.ErrCount
	if len(s.WinsByStrategy) > 0 && dst.WinsByStrategy == nil {
		dst.WinsByStrategy = map[string]uint64{}
	}
	for k, v := range s.WinsByStrategy {
		dst.WinsByStrategy[k] += v
	}
	dst.TopShapes = append(dst.TopShapes, s.TopShapes...)
}

// Counters returns s with its gauges (Shapes, TopShapes) dropped: the
// part of a selector's stats that outlives the selector, which the
// service keeps when a document is evicted so that no exported counter
// decreases. WinsByStrategy is shared with s, which AddTo only reads.
func (s SelectorStats) Counters() SelectorStats {
	s.Shapes, s.TopShapes = 0, nil
	return s
}

// Finalize computes the derived ratios and sorts/caps the shape table.
func (s *SelectorStats) Finalize() {
	if s.Decisions > 0 {
		s.ExplorationRate = float64(s.Explorations) / float64(s.Decisions)
	}
	if s.ErrCount > 0 {
		s.EstimateErrorPct = 100 * s.ErrRelSum / float64(s.ErrCount)
	}
	sort.Slice(s.TopShapes, func(i, j int) bool {
		if s.TopShapes[i].Decisions != s.TopShapes[j].Decisions {
			return s.TopShapes[i].Decisions > s.TopShapes[j].Decisions
		}
		return s.TopShapes[i].Shape < s.TopShapes[j].Shape
	})
	if len(s.TopShapes) > maxTopShapes {
		s.TopShapes = s.TopShapes[:maxTopShapes]
	}
}
