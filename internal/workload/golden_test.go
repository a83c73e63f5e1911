package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/ramp-sim/ramp/internal/trace"
)

// goldenStreamDigest pins the generated instruction streams of every
// built-in profile. A generator change that alters a single draw, field or
// instruction moves it; performance work must leave it fixed.
const goldenStreamDigest = "2eb058012d180c6ab358a684757daeced0d4d6e067bdd0b5acc2373e9a5270b6"

// goldenStreamInstrs is the number of instructions hashed per profile
// variant.
const goldenStreamInstrs = 500_000

// hashInstruction writes one instruction to h in a fixed little-endian
// layout: PC, Addr, Target (u64), Dest, Src1, Src2 (u16), then the Class
// and Taken bytes.
func hashInstruction(h hash.Hash, in *trace.Instruction) {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], in.PC)
	binary.LittleEndian.PutUint64(buf[8:], in.Addr)
	binary.LittleEndian.PutUint64(buf[16:], in.Target)
	binary.LittleEndian.PutUint16(buf[24:], in.Dest)
	binary.LittleEndian.PutUint16(buf[26:], in.Src1)
	binary.LittleEndian.PutUint16(buf[28:], in.Src2)
	buf[30] = byte(in.Class)
	if in.Taken {
		buf[31] = 1
	}
	h.Write(buf[:])
}

// goldenVariants returns every built-in profile twice: as shipped, and
// with program phases on, the two shapes the generator's hot path takes.
func goldenVariants() []Profile {
	var out []Profile
	for _, p := range Profiles() {
		out = append(out, p)
		p.PhaseInstrs, p.PhaseMemScale = 50_000, 1.5
		out = append(out, p)
	}
	return out
}

func TestGeneratorStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes 16M instructions; skipped with -short")
	}
	h := sha256.New()
	for _, p := range goldenVariants() {
		g, err := New(p, goldenStreamInstrs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < goldenStreamInstrs; i++ {
			in, err := g.Next()
			if err != nil {
				t.Fatalf("%s: instruction %d: %v", p.Name, i, err)
			}
			hashInstruction(h, &in)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenStreamDigest {
		t.Fatalf("generated streams changed: digest %s, want %s", got, goldenStreamDigest)
	}
}
