package sim

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/stats"
	"github.com/ramp-sim/ramp/internal/workload"
)

// Monte Carlo lifetime studies. A finished study grid fixes every cell's
// calibrated FIT breakdown; this stage relaxes the SOFR constant-rate
// assumption by drawing thousands of wear-out lifetime replicas per cell
// and reporting percentile + confidence-interval summaries instead of the
// paper's point MTTFs. Replicas are embarrassingly parallel: they fan out
// in batches over the process-wide compute pool, and every replica derives its
// own splittable RNG stream from (root seed, cell, replica), so the result
// is byte-identical at any parallelism and any batch size.

// StageMC labels Monte Carlo replica-batch tasks in progress callbacks.
const StageMC = "mc"

// MC study limits enforced by Validate: generous enough for convergence
// studies, small enough that a single request cannot exhaust memory (the
// per-cell replica buffer is Samples × 8 bytes).
const (
	// MaxMCSamples bounds replicas per cell for one MC study.
	MaxMCSamples = 10_000_000
	// MaxMCPercentiles bounds the requested percentile list length.
	MaxMCPercentiles = 64
)

// DefaultMCSamples is the replica count used when MCConfig.Samples is 0.
const DefaultMCSamples = 10_000

// defaultMCBatch is the replica-batch size used when MCConfig.BatchSize is
// 0: at the 2–3 µs/replica rampbench measures (sim.mc_ns_per_replica) a
// batch is ~10 ms, so scheduling overhead vanishes and progress flows.
const defaultMCBatch = 4096

// MCConfig parameterises a Monte Carlo lifetime study.
type MCConfig struct {
	// Samples is the number of lifetime replicas per (application ×
	// technology) cell; 0 means DefaultMCSamples.
	Samples int `json:"samples"`
	// Model selects the per-mechanism lifetime model: "sofr" (alias
	// "exponential") or "wearout" (alias "wear-out"); empty means
	// "wearout".
	Model string `json:"model"`
	// Percentiles lists the reported lifetime percentiles in (0,100);
	// empty means {5, 50, 95}. The list is sorted and deduplicated.
	Percentiles []float64 `json:"percentiles"`
	// CILevel is the two-sided confidence level for the mean and
	// percentile intervals, in (0,1); 0 means 0.95.
	CILevel float64 `json:"ci_level"`
	// Seed is the root seed every replica stream derives from. The same
	// seed reproduces the study byte-for-byte at any parallelism.
	Seed int64 `json:"seed"`
	// BatchSize is the number of replicas per scheduled task; 0 means a
	// default tuned for sampling cost. It never affects numerics.
	BatchSize int `json:"batch_size"`
}

// Normalized returns the config with defaults filled in, the model name
// canonicalised, and the percentile list sorted and deduplicated — the
// form Validate checks and MCStudyKey hashes, so equivalent requests share
// one cache entry.
func (m MCConfig) Normalized() MCConfig {
	out := m
	if out.Samples == 0 {
		out.Samples = DefaultMCSamples
	}
	if out.Model == "" {
		out.Model = core.ModelWearOut
	}
	out.Model = core.CanonicalModelName(out.Model)
	if out.CILevel == 0 {
		out.CILevel = 0.95
	}
	if out.BatchSize == 0 {
		out.BatchSize = defaultMCBatch
	}
	if len(m.Percentiles) == 0 {
		out.Percentiles = []float64{5, 50, 95}
	} else {
		ps := append([]float64(nil), m.Percentiles...)
		sort.Float64s(ps)
		dedup := ps[:0]
		for i, p := range ps {
			if i == 0 || p != ps[i-1] {
				dedup = append(dedup, p)
			}
		}
		out.Percentiles = dedup
	}
	return out
}

// Validate checks a normalized config. Call Normalized first; a zero
// Samples or CILevel here is an error, not a default.
func (m MCConfig) Validate() error {
	if m.Samples < 1 {
		return fmt.Errorf("sim: mc: need at least 1 sample, got %d", m.Samples)
	}
	if m.Samples > MaxMCSamples {
		return fmt.Errorf("sim: mc: %d samples exceeds the per-cell limit %d", m.Samples, MaxMCSamples)
	}
	if _, err := core.LifetimeModelByName(m.Model); err != nil {
		return fmt.Errorf("sim: mc: %w", err)
	}
	if len(m.Percentiles) > MaxMCPercentiles {
		return fmt.Errorf("sim: mc: %d percentiles exceeds the limit %d", len(m.Percentiles), MaxMCPercentiles)
	}
	for _, p := range m.Percentiles {
		if !(p > 0 && p < 100) {
			return fmt.Errorf("sim: mc: percentile %v outside (0,100)", p)
		}
	}
	if !(m.CILevel > 0 && m.CILevel < 1) {
		return fmt.Errorf("sim: mc: confidence level %v outside (0,1)", m.CILevel)
	}
	if m.BatchSize < 1 {
		return fmt.Errorf("sim: mc: batch size %d must be positive", m.BatchSize)
	}
	return nil
}

// MCPercentile is one reported lifetime percentile with its
// order-statistic confidence interval.
type MCPercentile struct {
	// P is the percentile in (0,100).
	P float64 `json:"p"`
	// Years is the sample percentile of the replica lifetimes.
	Years float64 `json:"years"`
	// CI is the distribution-free order-statistic confidence interval at
	// the study's CILevel.
	CI stats.Interval `json:"ci"`
}

// MCCell is the Monte Carlo lifetime summary of one (application ×
// technology) cell.
type MCCell struct {
	// App, Suite, and Tech identify the cell; Tech is the technology name.
	App   string `json:"app"`
	Suite string `json:"suite"`
	Tech  string `json:"tech"`
	// FITTotal is the cell's calibrated total failure rate.
	FITTotal float64 `json:"fit_total"`
	// SOFRYears is the analytic series-system MTTF of the same breakdown —
	// the paper's point estimate, for comparison.
	SOFRYears float64 `json:"sofr_years"`
	// MeanYears is the Monte Carlo mean lifetime with its normal-theory
	// confidence interval; StdYears is the sample standard deviation.
	MeanYears float64        `json:"mean_years"`
	MeanCI    stats.Interval `json:"mean_ci"`
	StdYears  float64        `json:"std_years"`
	// Percentiles reports the requested lifetime percentiles in ascending
	// P order.
	Percentiles []MCPercentile `json:"percentiles"`
	// Samples is the number of replicas summarised: the full count on a
	// final cell, the replicas seen so far on a progress estimate.
	Samples int `json:"samples"`
}

// MCResult is the full output of a Monte Carlo lifetime study.
type MCResult struct {
	// MC echoes the normalized configuration used.
	MC MCConfig `json:"mc"`
	// Cells holds one summary per (application × technology), in the same
	// order as the underlying StudyResult.Apps grid.
	Cells []MCCell `json:"cells"`
	// TotalReplicas is len(Cells) × MC.Samples.
	TotalReplicas int `json:"total_replicas"`
}

// MCEvent is one progress or completion event of a running Monte Carlo
// study, delivered through MCOptions.OnEvent from the study's goroutines.
type MCEvent struct {
	// Cell is the running estimate (Final false, summarising the replicas
	// drawn so far) or the final summary (Final true) for one grid cell.
	Cell MCCell
	// Final marks the cell as complete.
	Final bool
	// CellIndex locates the cell in the study grid; CellsDone and
	// CellsTotal count completed cells at emission time.
	CellIndex             int
	CellsDone, CellsTotal int
}

// MCOptions tunes the execution of a Monte Carlo study without affecting
// its numerics.
type MCOptions struct {
	// Parallelism bounds how many replica batches of this study are in
	// progress at once; values < 1 leave the bound to the process-wide
	// compute pool (sched.Default, GOMAXPROCS slots), where every batch
	// runs.
	Parallelism int
	// OnProgress, when non-nil, receives a completion event per replica
	// batch (stage StageMC). Called from the study's goroutines.
	OnProgress func(sched.Progress)
	// Metrics, when non-nil, receives the compute pool's lifecycle events
	// for the study's batches.
	Metrics sched.Recorder
	// OnEvent, when non-nil, receives incremental percentile/CI estimates
	// as batches land and a final event per cell. Called from the study's
	// goroutines; must be safe for concurrent use. Estimates cost an extra
	// sort per batch, so leave nil when only the final result matters.
	OnEvent func(MCEvent)
}

// mcStudyRequest is the hashed identity of a Monte Carlo study: the
// underlying study identity plus the normalized MC configuration.
type mcStudyRequest struct {
	Study studyRequest `json:"study"`
	MC    MCConfig     `json:"mc"`
}

// MCStudyKey returns a stable content-addressed key for a Monte Carlo
// study request: the hex SHA-256 over the canonical JSON of the study
// identity and the normalized MC config. Alias model names, permuted
// percentile lists, and permuted or aliased mechanism lists hash
// identically.
func MCStudyKey(cfg Config, mcfg MCConfig, profiles []workload.Profile, techs []scaling.Technology) (string, error) {
	cfg, err := canonicalizeConfigMechanisms(cfg)
	if err != nil {
		return "", err
	}
	return hashKey(mcStudyRequest{
		Study: studyRequest{Config: cfg, Profiles: profiles, Techs: techs},
		MC:    mcfg.Normalized(),
	})
}

// mcCellState is the per-cell accumulation of a running MC study. Batch
// tasks write disjoint segments of lifetimes; done and partial are guarded
// by mu. The task that brings done to the full sample count observes every
// earlier segment write (they happened before their done increments under
// the same mutex) and finalises the cell.
type mcCellState struct {
	mu        sync.Mutex
	lifetimes []float64
	done      int
	partial   []float64 // only maintained when progress events are wanted
}

// MonteCarloStudy draws the Monte Carlo lifetime distribution for every
// cell of a finished study. The study grid supplies each cell's calibrated
// FIT breakdown — typically replayed from the stage cache, so replicas pay
// only the sampling cost. Replicas fan out in fixed-size batches, each
// holding a slot of the process-wide compute pool while it samples;
// results are byte-identical for any Parallelism and any
// BatchSize because each replica's RNG stream depends only on (Seed, cell,
// replica).
func MonteCarloStudy(ctx context.Context, res *StudyResult, mcfg MCConfig, opts MCOptions) (*MCResult, error) {
	mcfg = mcfg.Normalized()
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	model, err := core.LifetimeModelByName(mcfg.Model)
	if err != nil {
		return nil, fmt.Errorf("sim: mc: %w", err)
	}
	if res == nil || len(res.Apps) == 0 {
		return nil, fmt.Errorf("sim: mc: study has no evaluated cells")
	}

	ctx, span := obs.StartSpan(ctx, obs.SpanMC)
	if span != nil {
		span.SetAttr("cells", strconv.Itoa(len(res.Apps)))
		span.SetAttr("samples", strconv.Itoa(mcfg.Samples))
		span.SetAttr("model", mcfg.Model)
		defer span.Finish()
	}

	nCells := len(res.Apps)
	samples := mcfg.Samples
	samplers := make([]*core.LifetimeSampler, nCells)
	breakdowns := make([]core.Breakdown, nCells)
	for i, a := range res.Apps {
		b := res.FIT(a)
		s, err := core.NewLifetimeSampler(b, model)
		if err != nil {
			return nil, fmt.Errorf("sim: mc %s @ %s: %w", a.App, a.Tech.Name, err)
		}
		samplers[i] = s
		breakdowns[i] = b
	}

	cells := make([]mcCellState, nCells)
	for i := range cells {
		cells[i].lifetimes = make([]float64, samples)
	}
	out := make([]MCCell, nCells)
	var cellsDone atomic.Int64

	// Fixed-size chunks of the replica index space, so the partition
	// depends only on Samples and BatchSize, never on parallelism.
	total, batch := nCells*samples, mcfg.BatchSize
	chunks := (total + batch - 1) / batch
	limit := opts.Parallelism
	if limit < 1 {
		limit = sched.Default.Size()
	}
	progress := sched.NewTally(opts.OnProgress, map[string]int{StageMC: chunks})
	ctx = sched.WithRecorder(ctx, opts.Metrics)
	err = sched.Each(ctx, chunks, limit, func(ctx context.Context, k int) error {
		start, end := k*batch, min((k+1)*batch, total)
		err := sched.Default.Run(ctx, StageMC, func(ctx context.Context) error {
			rr := core.NewReplicaRand()
			for f := start; f < end; {
				ci := f / samples
				r0 := f % samples
				r1 := min(r0+(end-f), samples)
				if err := sampleSegment(ctx, rr, samplers[ci], mcfg.Seed, ci, r0, r1, cells[ci].lifetimes); err != nil {
					return err
				}
				finishSegment(res, mcfg, &cells[ci], ci, r0, r1, breakdowns, out, &cellsDone, nCells, opts.OnEvent)
				f += r1 - r0
			}
			return nil
		})
		progress.Done(fmt.Sprintf("%s/%d-%d", StageMC, start, end), StageMC, err)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &MCResult{MC: mcfg, Cells: out, TotalReplicas: nCells * samples}, nil
}

// sampleSegment draws replicas [r0,r1) of cell ci into lifetimes, each
// from its own (seed, cell, replica) stream, under a sim.mc.batch span.
func sampleSegment(ctx context.Context, rr *core.ReplicaRand, sampler *core.LifetimeSampler,
	seed int64, ci, r0, r1 int, lifetimes []float64) error {
	_, span := obs.StartSpan(ctx, obs.SpanMCBatch)
	for r := r0; r < r1; r++ {
		// Same cancellation cadence as the thermal transient loop: a
		// cancelled study stops within one cancelCheckInterval window of
		// replicas.
		if (r-r0)&(cancelCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rr.Seed(seed, uint64(ci), uint64(r))
		lifetimes[r] = sampler.Sample(rr.Rand())
	}
	if span != nil {
		span.SetAttr("cell", strconv.Itoa(ci))
		span.SetAttr("replicas", strconv.Itoa(r1-r0))
		span.Finish()
	}
	return nil
}

// finishSegment folds a completed segment into the cell's accumulator:
// progress estimates while the cell is filling, the final summary (and its
// event) when the last segment lands.
func finishSegment(res *StudyResult, mcfg MCConfig, c *mcCellState, ci, r0, r1 int,
	breakdowns []core.Breakdown, out []MCCell, cellsDone *atomic.Int64, nCells int,
	onEvent func(MCEvent)) {
	app := res.Apps[ci]
	samples := mcfg.Samples

	c.mu.Lock()
	c.done += r1 - r0
	finished := c.done == samples
	var snapshot []float64
	if onEvent != nil && !finished {
		c.partial = append(c.partial, c.lifetimes[r0:r1]...)
		snapshot = append([]float64(nil), c.partial...)
	}
	if finished {
		c.partial = nil
	}
	c.mu.Unlock()

	if snapshot != nil {
		sort.Float64s(snapshot)
		est := summariseCell(app, breakdowns[ci], snapshot, mcfg)
		onEvent(MCEvent{
			Cell: est, CellIndex: ci,
			CellsDone: int(cellsDone.Load()), CellsTotal: nCells,
		})
	}
	if finished {
		// All segment writes happened before their done-increments under
		// c.mu, so this task sees the complete buffer.
		sort.Float64s(c.lifetimes)
		cell := summariseCell(app, breakdowns[ci], c.lifetimes, mcfg)
		out[ci] = cell
		done := int(cellsDone.Add(1))
		if onEvent != nil {
			onEvent(MCEvent{Cell: cell, Final: true, CellIndex: ci, CellsDone: done, CellsTotal: nCells})
		}
	}
}

// summariseCell computes the percentile + CI summary of one cell from its
// sorted replica lifetimes. The estimator is deterministic: percentiles
// interpolate between closest ranks of the fully sorted sample, percentile
// CIs are distribution-free order statistics, the mean CI is normal
// theory.
func summariseCell(app AppRun, b core.Breakdown, sorted []float64, mcfg MCConfig) MCCell {
	var acc stats.Running
	for _, x := range sorted {
		acc.Add(x)
	}
	cell := MCCell{
		App:       app.App,
		Suite:     app.Suite.String(),
		Tech:      app.Tech.Name,
		FITTotal:  b.Total(),
		SOFRYears: b.MTTFYears(),
		MeanYears: acc.Mean(),
		StdYears:  acc.StdDev(),
		Samples:   len(sorted),
	}
	if iv, err := stats.MeanCI(acc.Mean(), acc.StdDev(), acc.N(), mcfg.CILevel); err == nil {
		cell.MeanCI = iv
	}
	cell.Percentiles = make([]MCPercentile, 0, len(mcfg.Percentiles))
	for _, p := range mcfg.Percentiles {
		years, err := stats.PercentileSorted(sorted, p)
		if err != nil {
			continue
		}
		mp := MCPercentile{P: p, Years: years}
		if iv, err := stats.PercentileCISorted(sorted, p, mcfg.CILevel); err == nil {
			mp.CI = iv
		}
		cell.Percentiles = append(cell.Percentiles, mp)
	}
	return cell
}

// RunMCStudy executes the underlying scaling study and its Monte Carlo
// lifetime stage in one call with default options.
func RunMCStudy(cfg Config, mcfg MCConfig, profiles []workload.Profile,
	techs []scaling.Technology) (*MCResult, error) {
	return RunMCStudyContext(context.Background(), cfg, mcfg, profiles, techs, StudyOptions{}, nil)
}

// RunMCStudyContext executes the underlying scaling study under opts —
// reusing its stage cache, so a warm cache reduces the study to replaying
// cheap artifacts — then fans out the Monte Carlo replicas with the same
// parallelism and metrics plumbing. onEvent, when non-nil, receives
// incremental estimates (see MCOptions.OnEvent).
func RunMCStudyContext(ctx context.Context, cfg Config, mcfg MCConfig,
	profiles []workload.Profile, techs []scaling.Technology,
	opts StudyOptions, onEvent func(MCEvent)) (*MCResult, error) {
	mcfg = mcfg.Normalized()
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	res, err := RunStudyContext(ctx, cfg, profiles, techs, opts)
	if err != nil {
		return nil, err
	}
	return MonteCarloStudy(ctx, res, mcfg, MCOptions{
		Parallelism: opts.Parallelism,
		OnProgress:  opts.OnProgress,
		Metrics:     opts.Metrics,
		OnEvent:     onEvent,
	})
}
