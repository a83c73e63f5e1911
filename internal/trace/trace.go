// Package trace defines the instruction-trace representation consumed by the
// timing simulator (internal/microarch), mirroring the role of the PowerPC
// trace files that feed Turandot in the paper (§4.1, §4.5).
//
// A trace is a stream of decoded instructions carrying the fields a
// trace-driven performance model needs: instruction class, register
// dependences, effective address for memory operations, and the resolved
// outcome for branches. Traces can be generated synthetically
// (internal/workload), held in memory, or serialised to a compact binary
// file format.
package trace

import (
	"errors"
	"fmt"
	"io"
)

// Class identifies the functional class of an instruction. The taxonomy
// matches the functional-unit mix of the modeled POWER4-like core (Table 2):
// integer, floating-point, load/store, branch, and logical-condition-register
// operations.
type Class uint8

// Instruction classes.
const (
	ClassIntALU   Class = iota + 1 // single-cycle integer op
	ClassIntMul                    // integer multiply (7 cycles)
	ClassIntDiv                    // integer divide (35 cycles)
	ClassFPOp                      // generic FP op (4 cycles)
	ClassFPDiv                     // FP divide (12 cycles)
	ClassLoad                      // memory load
	ClassStore                     // memory store
	ClassBranch                    // conditional or unconditional branch
	ClassLCR                       // logical condition-register op
	classSentinel                  // one past the last valid class
)

// NumClasses is the number of valid instruction classes.
const NumClasses = int(classSentinel) - 1

var _classNames = [...]string{
	ClassIntALU: "int-alu",
	ClassIntMul: "int-mul",
	ClassIntDiv: "int-div",
	ClassFPOp:   "fp-op",
	ClassFPDiv:  "fp-div",
	ClassLoad:   "load",
	ClassStore:  "store",
	ClassBranch: "branch",
	ClassLCR:    "lcr",
}

// String returns a short lower-case name for the class.
func (c Class) String() string {
	if !c.Valid() {
		return fmt.Sprintf("class(%d)", uint8(c))
	}
	return _classNames[c]
}

// Valid reports whether c is a defined instruction class.
func (c Class) Valid() bool { return c >= ClassIntALU && c < classSentinel }

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// IsFP reports whether the class executes on the floating-point units.
func (c Class) IsFP() bool { return c == ClassFPOp || c == ClassFPDiv }

// IsInt reports whether the class executes on the fixed-point units.
func (c Class) IsInt() bool {
	return c == ClassIntALU || c == ClassIntMul || c == ClassIntDiv
}

// RegNone marks an absent register operand.
const RegNone uint16 = 0

// NumArchRegs is the size of the architected register name space used by
// traces. Registers 1..127 name integer registers and 128..255 name FP
// registers; 0 is RegNone. The rename stage in the simulator maps these to
// the physical register files of Table 2 (120 integer, 96 FP).
const NumArchRegs = 256

// Instruction is one decoded instruction in a trace.
type Instruction struct {
	// PC is the instruction address (used by the I-cache and branch
	// predictor models).
	PC uint64
	// Addr is the effective data address for loads and stores; zero
	// otherwise.
	Addr uint64
	// Dest is the architected destination register, or RegNone.
	Dest uint16
	// Src1 and Src2 are architected source registers, or RegNone.
	Src1, Src2 uint16
	// Class is the functional class.
	Class Class
	// Taken is the resolved direction for branches; false otherwise.
	Taken bool
	// Target is the branch target PC for taken branches; zero otherwise.
	Target uint64
}

// Validate reports whether the instruction is internally consistent.
func (in Instruction) Validate() error {
	if !in.Class.Valid() {
		return fmt.Errorf("trace: invalid class %d", in.Class)
	}
	if in.Class.IsMem() && in.Addr == 0 {
		return errors.New("trace: memory instruction with zero address")
	}
	if !in.Class.IsMem() && in.Addr != 0 {
		return fmt.Errorf("trace: %v instruction carries a data address", in.Class)
	}
	if in.Class != ClassBranch && (in.Taken || in.Target != 0) {
		return fmt.Errorf("trace: %v instruction carries branch outcome", in.Class)
	}
	if in.Dest >= NumArchRegs || in.Src1 >= NumArchRegs || in.Src2 >= NumArchRegs {
		return errors.New("trace: register id out of range")
	}
	return nil
}

// Stream produces instructions one at a time. Next returns io.EOF after the
// final instruction. Implementations are not safe for concurrent use.
type Stream interface {
	Next() (Instruction, error)
}

// BatchStream is a Stream that can also hand over many instructions per
// call, which a consumer of every instruction (the timing simulator)
// prefers: one call per batch instead of one per instruction.
//
// NextBatch fills a prefix of buf, possibly shorter than buf, and returns
// its length n. With a nil error n is positive for a non-empty buf. At the
// end of the stream the error is io.EOF; the n instructions delivered
// with any error are valid.
type BatchStream interface {
	Stream
	NextBatch(buf []Instruction) (n int, err error)
}

// Batches returns s as a BatchStream: s itself when it implements one,
// otherwise an adapter that fills each batch by calling s.Next. After the
// first error the adapter returns that error again without calling s.Next.
func Batches(s Stream) BatchStream {
	if bs, ok := s.(BatchStream); ok {
		return bs
	}
	return &nextBatcher{src: s}
}

// nextBatcher adapts a plain Stream to BatchStream.
type nextBatcher struct {
	src Stream
	err error // the first error from src
}

func (b *nextBatcher) NextBatch(buf []Instruction) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	for i := range buf {
		in, err := b.src.Next()
		if err != nil {
			b.err = err
			return i, err
		}
		buf[i] = in
	}
	return len(buf), nil
}

func (b *nextBatcher) Next() (Instruction, error) {
	if b.err != nil {
		return Instruction{}, b.err
	}
	in, err := b.src.Next()
	b.err = err
	return in, err
}

// SliceStream adapts an in-memory instruction slice to the Stream interface.
type SliceStream struct {
	instrs []Instruction
	pos    int
}

var _ BatchStream = (*SliceStream)(nil)

// NewSliceStream returns a Stream over instrs. The slice is not copied; the
// caller must not mutate it while streaming.
func NewSliceStream(instrs []Instruction) *SliceStream {
	return &SliceStream{instrs: instrs}
}

// Next returns the next instruction or io.EOF.
func (s *SliceStream) Next() (Instruction, error) {
	if s.pos >= len(s.instrs) {
		return Instruction{}, io.EOF
	}
	in := s.instrs[s.pos]
	s.pos++
	return in, nil
}

// NextBatch copies the next instructions into buf, implementing
// BatchStream.
func (s *SliceStream) NextBatch(buf []Instruction) (int, error) {
	n := copy(buf, s.instrs[s.pos:])
	s.pos += n
	if n < len(buf) {
		return n, io.EOF
	}
	return n, nil
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the underlying slice.
func (s *SliceStream) Len() int { return len(s.instrs) }

// Collect drains up to limit instructions from a stream into a slice.
// limit <= 0 collects the whole stream.
func Collect(s Stream, limit int) ([]Instruction, error) {
	var out []Instruction
	if limit > 0 {
		out = make([]Instruction, 0, limit)
	}
	for limit <= 0 || len(out) < limit {
		in, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("trace: collect: %w", err)
		}
		out = append(out, in)
	}
	return out, nil
}
