package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{ClassIntALU, "int-alu"},
		{ClassFPDiv, "fp-div"},
		{ClassLCR, "lcr"},
		{Class(0), "class(0)"},
		{Class(200), "class(200)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Class(%d).String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	for c := ClassIntALU; c.Valid(); c++ {
		wantMem := c == ClassLoad || c == ClassStore
		if c.IsMem() != wantMem {
			t.Errorf("%v.IsMem() = %v", c, c.IsMem())
		}
		wantFP := c == ClassFPOp || c == ClassFPDiv
		if c.IsFP() != wantFP {
			t.Errorf("%v.IsFP() = %v", c, c.IsFP())
		}
		wantInt := c == ClassIntALU || c == ClassIntMul || c == ClassIntDiv
		if c.IsInt() != wantInt {
			t.Errorf("%v.IsInt() = %v", c, c.IsInt())
		}
	}
	if Class(0).Valid() || Class(100).Valid() {
		t.Error("invalid classes must not be Valid")
	}
}

func TestNumClasses(t *testing.T) {
	if NumClasses != 9 {
		t.Fatalf("NumClasses = %d, want 9", NumClasses)
	}
}

func TestInstructionValidate(t *testing.T) {
	tests := []struct {
		name    string
		in      Instruction
		wantErr bool
	}{
		{"valid alu", Instruction{PC: 4, Class: ClassIntALU, Dest: 3, Src1: 1, Src2: 2}, false},
		{"valid load", Instruction{PC: 8, Class: ClassLoad, Addr: 0x1000, Dest: 5}, false},
		{"valid taken branch", Instruction{PC: 12, Class: ClassBranch, Taken: true, Target: 0x40}, false},
		{"invalid class", Instruction{Class: Class(0)}, true},
		{"load without addr", Instruction{Class: ClassLoad}, true},
		{"alu with addr", Instruction{Class: ClassIntALU, Addr: 8}, true},
		{"alu with branch outcome", Instruction{Class: ClassIntALU, Taken: true}, true},
		{"reg out of range", Instruction{Class: ClassIntALU, Dest: NumArchRegs}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.in.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSliceStream(t *testing.T) {
	instrs := []Instruction{
		{PC: 0, Class: ClassIntALU},
		{PC: 4, Class: ClassLoad, Addr: 64},
	}
	s := NewSliceStream(instrs)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	got, err := Collect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, instrs) {
		t.Fatalf("Collect = %+v, want %+v", got, instrs)
	}
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain, Next err = %v, want EOF", err)
	}
	s.Reset()
	if in, err := s.Next(); err != nil || in.PC != 0 {
		t.Fatalf("after Reset, Next = %+v, %v", in, err)
	}
}

// countingNexts counts the Next calls made on a plain stream.
type countingNexts struct {
	Stream
	calls int
}

func (c *countingNexts) Next() (Instruction, error) {
	c.calls++
	return c.Stream.Next()
}

// TestBatchesStopsAtFirstError pins the adapter's contract: instructions
// read before an error come back with it, and the source is not read
// again after it.
func TestBatchesStopsAtFirstError(t *testing.T) {
	src := &countingNexts{Stream: NewSliceStream(make([]Instruction, 3))}
	b := Batches(src)
	buf := make([]Instruction, 2)
	for i, want := range []struct {
		n   int
		err error
	}{{2, nil}, {1, io.EOF}, {0, io.EOF}} {
		if n, err := b.NextBatch(buf); n != want.n || err != want.err {
			t.Fatalf("batch %d = %d, %v; want %d, %v", i, n, err, want.n, want.err)
		}
	}
	if src.calls != 4 {
		t.Fatalf("source read %d times, want 4: three instructions and one EOF", src.calls)
	}
}

func TestCollectLimit(t *testing.T) {
	instrs := make([]Instruction, 10)
	for i := range instrs {
		instrs[i] = Instruction{PC: uint64(4 * i), Class: ClassIntALU}
	}
	got, err := Collect(NewSliceStream(instrs), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("Collect(limit=3) returned %d instructions", len(got))
	}
}

func randomInstruction(rng *rand.Rand) Instruction {
	classes := []Class{
		ClassIntALU, ClassIntMul, ClassIntDiv, ClassFPOp, ClassFPDiv,
		ClassLoad, ClassStore, ClassBranch, ClassLCR,
	}
	in := Instruction{
		PC:    uint64(rng.Intn(1<<20)) * 4,
		Class: classes[rng.Intn(len(classes))],
		Dest:  uint16(rng.Intn(NumArchRegs)),
		Src1:  uint16(rng.Intn(NumArchRegs)),
		Src2:  uint16(rng.Intn(NumArchRegs)),
	}
	switch {
	case in.Class.IsMem():
		in.Addr = uint64(rng.Intn(1<<30) + 1)
	case in.Class == ClassBranch:
		in.Taken = rng.Intn(2) == 0
		if in.Taken {
			in.Target = uint64(rng.Intn(1<<20)) * 4
		}
	}
	return in
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	instrs := make([]Instruction, 5000)
	for i := range instrs {
		instrs[i] = randomInstruction(rng)
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range instrs {
		if err := w.Write(in); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if w.Count() != int64(len(instrs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(instrs))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(instrs) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(instrs))
	}
	for i := range instrs {
		if got[i] != instrs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], instrs[i])
		}
	}
}

func TestEncodingIsCompact(t *testing.T) {
	// Sequential-PC integer code should encode in only a few bytes per
	// instruction thanks to PC delta encoding.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		in := Instruction{PC: uint64(4 * i), Class: ClassIntALU, Dest: 1, Src1: 2, Src2: 3}
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	perInstr := float64(buf.Len()) / n
	if perInstr > 8 {
		t.Fatalf("encoding uses %.1f bytes/instr, want ≤ 8", perInstr)
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w, err := NewWriter(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Instruction{Class: Class(0)}); err == nil {
		t.Fatal("Write must reject invalid instructions")
	}
	if w.Count() != 0 {
		t.Fatal("rejected writes must not count")
	}
}

func TestReaderBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOTATRACE")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("RAM")))
	if err == nil {
		t.Fatal("short header must error")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Instruction{PC: 4, Class: ClassLoad, Addr: 1 << 28, Dest: 9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop off the record's tail: decoding must fail loudly, not return EOF.
	data := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated record: err = %v, want unexpected-EOF error", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated record: err = %v, want io.ErrUnexpectedEOF in chain", err)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 1
		instrs := make([]Instruction, n)
		for i := range instrs {
			instrs[i] = randomInstruction(rng)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, in := range instrs {
			if err := w.Write(in); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := Collect(r, 0)
		if err != nil || len(got) != n {
			return false
		}
		for i := range instrs {
			if got[i] != instrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
