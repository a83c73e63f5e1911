package trace

import (
	"errors"
	"io"
	"math"
	"slices"
	"testing"
)

func countingStream(n int) Stream {
	instrs := make([]Instruction, n)
	for i := range instrs {
		c := ClassIntALU
		if i%5 == 4 {
			c = ClassBranch
		}
		instrs[i] = Instruction{PC: uint64(4 * i), Class: c}
	}
	return NewSliceStream(instrs)
}

func TestSamplerConfigValidate(t *testing.T) {
	good := SamplerConfig{WindowInstrs: 100, PeriodInstrs: 1000}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := good.Ratio(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Ratio = %v, want 0.1", got)
	}
	bad := []SamplerConfig{
		{WindowInstrs: 0, PeriodInstrs: 10},
		{WindowInstrs: -5, PeriodInstrs: 10},
		{WindowInstrs: 20, PeriodInstrs: 10},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestSamplerKeepsExactWindows(t *testing.T) {
	s, err := NewSystematicSampler(countingStream(100), SamplerConfig{WindowInstrs: 3, PeriodInstrs: 10})
	if err != nil {
		t.Fatal(err)
	}
	var pcs []uint64
	for {
		in, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pcs = append(pcs, in.PC)
	}
	// 10 periods × 3 kept: indices 0,1,2, 10,11,12, 20,21,22, …
	if len(pcs) != 30 {
		t.Fatalf("kept %d instructions, want 30", len(pcs))
	}
	for i, pc := range pcs {
		period, off := i/3, i%3
		want := uint64(4 * (period*10 + off))
		if pc != want {
			t.Fatalf("sample %d: PC %#x, want %#x", i, pc, want)
		}
	}
	if s.Kept() != 30 || s.Dropped() != 70 {
		t.Fatalf("kept/dropped = %d/%d, want 30/70", s.Kept(), s.Dropped())
	}
}

// nextOnly hides a stream's NextBatch, so a sampler reads it through the
// adapter Batches builds.
type nextOnly struct{ Stream }

// TestSamplerBatchesMatchNext pins the batch path against reading one
// instruction at a time: whatever the batch size, and whether the source
// serves batches, the sampler delivers the same instructions with the same
// counts, and no batch runs past the end of its window, where a warming
// source would replay the gap into the consumer's caches.
func TestSamplerBatchesMatchNext(t *testing.T) {
	cfg := SamplerConfig{WindowInstrs: 30, PeriodInstrs: 100, HeadInstrs: 45}
	ref, err := NewSystematicSampler(countingStream(1000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, plain := range []bool{false, true} {
		for _, size := range []int{1, 7, 256} {
			src := countingStream(1000)
			if plain {
				src = nextOnly{src}
			}
			s, err := NewSystematicSampler(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []Instruction
			buf := make([]Instruction, size)
			for {
				n, err := s.NextBatch(buf)
				for i := 1; i < n; i++ {
					if buf[i].PC != buf[i-1].PC+4 {
						t.Fatalf("plain %v, batch %d: batch spans a gap at PC %#x", plain, size, buf[i].PC)
					}
				}
				got = append(got, buf[:n]...)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(got, want) || s.Kept() != ref.Kept() || s.Dropped() != ref.Dropped() {
				t.Fatalf("plain %v, batch %d: %d instructions, kept %d, dropped %d; want %d, %d, %d",
					plain, size, len(got), s.Kept(), s.Dropped(), len(want), ref.Kept(), ref.Dropped())
			}
		}
	}
}

func TestSamplerPassThrough(t *testing.T) {
	s, err := NewSystematicSampler(countingStream(50), SamplerConfig{WindowInstrs: 7, PeriodInstrs: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 || s.Dropped() != 0 {
		t.Fatalf("pass-through kept %d dropped %d", len(got), s.Dropped())
	}
}

func TestSamplerRejectsBadInputs(t *testing.T) {
	if _, err := NewSystematicSampler(nil, SamplerConfig{WindowInstrs: 1, PeriodInstrs: 1}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewSystematicSampler(countingStream(1), SamplerConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestSamplerPreservesClassMix(t *testing.T) {
	// The §4.5 validation property: a systematic sample of a stationary
	// trace preserves the dynamic instruction mix.
	full, _, err := ClassMix(countingStream(100000), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystematicSampler(countingStream(100000), SamplerConfig{WindowInstrs: 100, PeriodInstrs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	sampled, n, err := ClassMix(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Fatalf("sampled %d instructions, want 10000", n)
	}
	for c, f := range full {
		if math.Abs(sampled[c]-f) > 0.01 {
			t.Errorf("class %v: sampled fraction %.4f vs full %.4f", c, sampled[c], f)
		}
	}
}

func TestClassMixEmptyStream(t *testing.T) {
	mix, n, err := ClassMix(NewSliceStream(nil), 0)
	if err != nil || n != 0 || len(mix) != 0 {
		t.Fatalf("empty stream: mix=%v n=%d err=%v", mix, n, err)
	}
}

func TestClassMixLimit(t *testing.T) {
	_, n, err := ClassMix(countingStream(100), 25)
	if err != nil || n != 25 {
		t.Fatalf("limited mix consumed %d, err %v", n, err)
	}
}
