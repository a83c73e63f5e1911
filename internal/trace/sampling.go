package trace

import (
	"errors"
	"fmt"
	"io"
)

// Sampling support. The paper's traces are sampled: "Sampling was used to
// limit the trace length to 100 million instructions per program. The
// sampled traces have been validated with the original full traces for
// accuracy and correct representation" (§4.5, citing Iyengar et al. [9]).
// SystematicSampler reproduces that methodology: it passes through one
// window of W instructions out of every period of P, discarding the rest,
// turning a long trace into a representative short one.

// SamplerConfig parameterises systematic trace sampling.
type SamplerConfig struct {
	// WindowInstrs is the number of consecutive instructions kept per
	// period.
	WindowInstrs int64
	// PeriodInstrs is the sampling period; PeriodInstrs − WindowInstrs
	// instructions are skipped after each window. PeriodInstrs ==
	// WindowInstrs passes the trace through unchanged.
	PeriodInstrs int64
	// HeadInstrs is a contiguous prefix passed through before the
	// window/period cadence starts. Execution out of cold structures
	// (compulsory cache misses, untrained predictors) is transient, not
	// stationary — sampling it periodically would replay fragments of it
	// at the sampled stream's inflated weight. Keeping the head whole
	// confines the transient to a region consumers can weight exactly
	// once.
	HeadInstrs int64
}

// Validate checks the sampling geometry.
func (c SamplerConfig) Validate() error {
	if c.WindowInstrs <= 0 {
		return fmt.Errorf("trace: sampling window must be positive, got %d", c.WindowInstrs)
	}
	if c.PeriodInstrs < c.WindowInstrs {
		return fmt.Errorf("trace: sampling period %d below window %d", c.PeriodInstrs, c.WindowInstrs)
	}
	if c.HeadInstrs < 0 {
		return fmt.Errorf("trace: sampling head must be non-negative, got %d", c.HeadInstrs)
	}
	return nil
}

// Ratio returns the fraction of instructions kept.
func (c SamplerConfig) Ratio() float64 {
	return float64(c.WindowInstrs) / float64(c.PeriodInstrs)
}

// Skipper is an optional Stream extension for sources that can discard
// upcoming instructions cheaply (a synthetic generator reseeding past the
// gap, a trace reader seeking). Skip discards up to n instructions and
// returns how many were discarded; it must either make progress (skipped >
// 0) or return an error (io.EOF at end of stream), so callers can loop
// without livelock.
type Skipper interface {
	Skip(n int64) (skipped int64, err error)
}

// MemWarmer absorbs the expected memory traffic of a skipped span — the
// cache-content side effects of instructions that are never simulated.
// Long-lived microarchitectural state (an L2 being churned by streaming
// accesses) evolves over millions of instructions; a sampler that discards
// spans without this replay freezes that evolution and biases every
// window behind it. Implementations update cache contents only, never
// demand statistics. store distinguishes write traffic (no prefetch on
// the demand path).
type MemWarmer interface {
	WarmAccess(addr uint64, store bool)
}

// WarmSkipper is a Skipper that can also replay the skipped span's
// expected memory traffic into a MemWarmer. The replay must be a
// deterministic function of the span's absolute trace positions, so that
// skipping a span in chunks and in one call leave identical state.
type WarmSkipper interface {
	Skipper
	SkipWarm(n int64, w MemWarmer) (skipped int64, err error)
}

// SystematicSampler filters a Stream down to an optional contiguous head
// followed by periodic windows.
type SystematicSampler struct {
	src      Stream
	batches  BatchStream // src, read in batches
	cfg      SamplerConfig
	warmer   MemWarmer
	headLeft int64 // head instructions still to pass through
	pos      int64 // position within the current period
	kept     int64
	dropped  int64
	one      [1]Instruction // Next's batch
}

var _ BatchStream = (*SystematicSampler)(nil)

// NewSystematicSampler wraps src with systematic sampling.
func NewSystematicSampler(src Stream, cfg SamplerConfig) (*SystematicSampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("trace: nil source stream")
	}
	return &SystematicSampler{src: src, batches: Batches(src), cfg: cfg, headLeft: cfg.HeadInstrs}, nil
}

// SetWarmer registers the consumer's memory hierarchy for statistical
// warming of skipped spans: when the source implements WarmSkipper, each
// inter-window gap replays its expected memory traffic into w instead of
// being discarded outright. A nil warmer (the default) falls back to the
// plain Skip path.
func (s *SystematicSampler) SetWarmer(w MemWarmer) { s.warmer = w }

// Next returns the next sampled instruction.
func (s *SystematicSampler) Next() (Instruction, error) {
	if _, err := s.NextBatch(s.one[:]); err != nil {
		return Instruction{}, err
	}
	return s.one[0], nil
}

// NextBatch fills buf with the next sampled instructions, implementing
// BatchStream: the rest of the head, or of the current window, skipping
// out-of-window instructions from the source. Sources implementing Skipper
// discard each inter-window gap in one cheap jump instead of generating
// and dropping every instruction in it.
func (s *SystematicSampler) NextBatch(buf []Instruction) (int, error) {
	n := 0
	for n < len(buf) {
		head := s.headLeft > 0
		var want int64
		switch {
		case head:
			want = s.headLeft
		case s.pos < s.cfg.WindowInstrs:
			want = s.cfg.WindowInstrs - s.pos
		case n > 0:
			// A batch ends with its window: warming replays the gap into
			// the consumer's caches, which must first have seen the window.
			return n, nil
		default:
			if err := s.skipGap(buf); err != nil {
				return 0, err
			}
			continue
		}
		k, err := s.batches.NextBatch(buf[n : n+int(min(int64(len(buf)-n), want))])
		n += k
		s.kept += int64(k)
		if head {
			s.headLeft -= int64(k)
		} else if s.pos += int64(k); s.pos == s.cfg.PeriodInstrs {
			s.pos = 0
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// skipGap discards source instructions from the current position towards
// the end of the period: by SkipWarm or Skip where the source offers
// them, else by reading them into scratch.
func (s *SystematicSampler) skipGap(scratch []Instruction) error {
	gap := s.cfg.PeriodInstrs - s.pos
	var n int64
	var err error
	if ws, ok := s.src.(WarmSkipper); ok && s.warmer != nil {
		n, err = ws.SkipWarm(gap, s.warmer)
	} else if sk, ok := s.src.(Skipper); ok {
		n, err = sk.Skip(gap)
	} else {
		var k int
		k, err = s.batches.NextBatch(scratch[:min(int64(len(scratch)), gap)])
		n = int64(k)
	}
	s.dropped += n
	if s.pos += n; s.pos >= s.cfg.PeriodInstrs {
		s.pos = 0
	}
	return err
}

// Kept returns the number of instructions passed through.
func (s *SystematicSampler) Kept() int64 { return s.kept }

// Dropped returns the number of instructions skipped.
func (s *SystematicSampler) Dropped() int64 { return s.dropped }

// ClassMix tallies the dynamic class distribution of up to limit
// instructions from a stream (limit <= 0 drains it), for sampling-fidelity
// validation.
func ClassMix(s Stream, limit int64) (map[Class]float64, int64, error) {
	counts := make(map[Class]int64, NumClasses)
	var total int64
	for limit <= 0 || total < limit {
		in, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, total, err
		}
		counts[in.Class]++
		total++
	}
	mix := make(map[Class]float64, len(counts))
	if total > 0 {
		for c, k := range counts {
			mix[c] = float64(k) / float64(total)
		}
	}
	return mix, total, nil
}
