// Package floorplan describes the physical layout of the modeled core: the
// 7-structure POWER4-like floorplan fed to the thermal model (paper §4.3,
// "The chip floorplan fed to HotSpot resembles a single core of a 180nm
// POWER4-like processor, of size 81mm² (9mm × 9mm)"). Geometry scales with
// technology via the relative-area column of Table 4.
package floorplan

import (
	"fmt"
	"math"

	"github.com/ramp-sim/ramp/internal/microarch"
)

// Block is one rectangular structure on the die. Coordinates and sizes are
// in millimetres; the origin is the die's top-left corner.
type Block struct {
	// ID is the microarchitectural structure occupying the block.
	ID microarch.StructureID
	// Core is the core index the block belongs to (0 for a single-core
	// die; 0..N-1 on a tiled CMP floorplan).
	Core int
	// X, Y locate the block's top-left corner.
	X, Y float64
	// W, H are the block's width and height.
	W, H float64
}

// Area returns the block area in mm².
func (b Block) Area() float64 { return float64(b.W * b.H) }

// Floorplan is a complete die layout.
type Floorplan struct {
	// Blocks holds one entry per structure, indexed by StructureID.
	Blocks []Block
	// DieW, DieH are the die dimensions in mm.
	DieW, DieH float64
}

// POWER4 returns the base 180nm single-core floorplan: a 9mm × 9mm die
// with the 7 structures arranged in two rows. Areas reflect the POWER4
// unit organisation: the LSU (with its L1 D-cache) is the largest block,
// the IFU (with the L1 I-cache and predictor tables) next, and the
// decode and branch/CR units smallest.
func POWER4() Floorplan {
	const rowH = 4.5
	blocks := make([]Block, microarch.NumStructures)
	// Top row: front end and sequencing.
	blocks[microarch.StructIFU] = Block{ID: microarch.StructIFU, X: 0, Y: 0, W: 3.0, H: rowH}
	blocks[microarch.StructIDU] = Block{ID: microarch.StructIDU, X: 3.0, Y: 0, W: 1.5, H: rowH}
	blocks[microarch.StructISU] = Block{ID: microarch.StructISU, X: 4.5, Y: 0, W: 2.5, H: rowH}
	blocks[microarch.StructBXU] = Block{ID: microarch.StructBXU, X: 7.0, Y: 0, W: 2.0, H: rowH}
	// Bottom row: execution and memory.
	blocks[microarch.StructFXU] = Block{ID: microarch.StructFXU, X: 0, Y: rowH, W: 2.2, H: rowH}
	blocks[microarch.StructFPU] = Block{ID: microarch.StructFPU, X: 2.2, Y: rowH, W: 2.6, H: rowH}
	blocks[microarch.StructLSU] = Block{ID: microarch.StructLSU, X: 4.8, Y: rowH, W: 4.2, H: rowH}
	return Floorplan{Blocks: blocks, DieW: 9, DieH: 9}
}

// Validate checks that blocks tile the die without overlap or overhang.
func (f Floorplan) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("floorplan: no blocks")
	}
	if f.DieW <= 0 || f.DieH <= 0 {
		return fmt.Errorf("floorplan: non-positive die size %vx%v", f.DieW, f.DieH)
	}
	var total float64
	const eps = 1e-9
	for i, b := range f.Blocks {
		if b.W <= 0 || b.H <= 0 {
			return fmt.Errorf("floorplan: block %v has non-positive size", b.ID)
		}
		if b.X < -eps || b.Y < -eps || b.X+b.W > f.DieW+eps || b.Y+b.H > f.DieH+eps {
			return fmt.Errorf("floorplan: block %v overhangs the die", b.ID)
		}
		total += b.Area()
		for j := i + 1; j < len(f.Blocks); j++ {
			o := &f.Blocks[j]
			ox := math.Min(b.X+b.W, o.X+o.W) - math.Max(b.X, o.X)
			oy := math.Min(b.Y+b.H, o.Y+o.H) - math.Max(b.Y, o.Y)
			if ox > eps && oy > eps {
				return fmt.Errorf("floorplan: blocks %v and %v overlap", b.ID, o.ID)
			}
		}
	}
	if math.Abs(total-float64(f.DieW*f.DieH)) > 1e-6*f.DieW*f.DieH {
		return fmt.Errorf("floorplan: blocks cover %.4f mm² of a %.4f mm² die",
			total, f.DieW*f.DieH)
	}
	return nil
}

// DieArea returns the die area in mm².
func (f Floorplan) DieArea() float64 { return f.DieW * f.DieH }

// Areas returns per-block areas in mm² in block order. For the single-core
// POWER4 floorplan, block order equals StructureID order, so the result is
// also indexed by StructureID.
func (f Floorplan) Areas() []float64 {
	out := make([]float64, len(f.Blocks))
	for i, b := range f.Blocks {
		out[i] = b.Area()
	}
	return out
}

// Tiled returns a CMP floorplan with n copies of this die laid out side by
// side: core i occupies the x-range [i·DieW, (i+1)·DieW). Each tile's
// blocks keep their StructureID and record their core index.
func (f Floorplan) Tiled(n int) (Floorplan, error) {
	return f.TiledGrid(n, 1)
}

// TiledGrid returns a CMP floorplan with cols×rows copies of this die in a
// grid; core index c = row·cols + col. Cores couple thermally along both
// shared edges, matching real quad-core layouts better than a single row.
func (f Floorplan) TiledGrid(cols, rows int) (Floorplan, error) {
	if cols < 1 || rows < 1 {
		return Floorplan{}, fmt.Errorf("floorplan: grid must be at least 1x1, got %dx%d", cols, rows)
	}
	out := Floorplan{
		Blocks: make([]Block, 0, cols*rows*len(f.Blocks)),
		DieW:   f.DieW * float64(cols),
		DieH:   f.DieH * float64(rows),
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dx := float64(c) * f.DieW
			dy := float64(r) * f.DieH
			for _, b := range f.Blocks {
				b.Core = r*cols + c
				b.X += float64(dx)
				b.Y += float64(dy)
				out.Blocks = append(out.Blocks, b)
			}
		}
	}
	return out, nil
}

// Scaled returns the floorplan shrunk to relArea times the original area
// (all linear dimensions scale by √relArea), modelling a technology remap
// of the same layout (Table 4's relative-area column).
func (f Floorplan) Scaled(relArea float64) (Floorplan, error) {
	if relArea <= 0 {
		return Floorplan{}, fmt.Errorf("floorplan: relative area must be positive, got %v", relArea)
	}
	s := math.Sqrt(relArea)
	out := Floorplan{
		Blocks: make([]Block, len(f.Blocks)),
		DieW:   f.DieW * s,
		DieH:   f.DieH * s,
	}
	for i, b := range f.Blocks {
		out.Blocks[i] = Block{ID: b.ID, X: b.X * s, Y: b.Y * s, W: b.W * s, H: b.H * s}
	}
	return out, nil
}

// SharedEdge returns the length (mm) of the boundary shared by the blocks
// at positions a and b, or 0 if they are not adjacent. On the single-core
// floorplan, positions coincide with StructureID values.
func (f Floorplan) SharedEdge(a, b int) float64 {
	ba, bb := f.Blocks[a], f.Blocks[b]
	const eps = 1e-9
	// Vertical contact (side by side).
	if math.Abs(ba.X+ba.W-bb.X) < eps || math.Abs(bb.X+bb.W-ba.X) < eps {
		lo := math.Max(ba.Y, bb.Y)
		hi := math.Min(ba.Y+ba.H, bb.Y+bb.H)
		if hi > lo {
			return hi - lo
		}
	}
	// Horizontal contact (stacked).
	if math.Abs(ba.Y+ba.H-bb.Y) < eps || math.Abs(bb.Y+bb.H-ba.Y) < eps {
		lo := math.Max(ba.X, bb.X)
		hi := math.Min(ba.X+ba.W, bb.X+bb.W)
		if hi > lo {
			return hi - lo
		}
	}
	return 0
}

// CenterDistance returns the distance between the centres of the blocks
// at positions a and b, in mm.
func (f Floorplan) CenterDistance(a, b int) float64 {
	ba, bb := f.Blocks[a], f.Blocks[b]
	dx := (ba.X + float64(ba.W/2)) - (bb.X + float64(bb.W/2))
	dy := (ba.Y + float64(ba.H/2)) - (bb.Y + float64(bb.H/2))
	return math.Hypot(dx, dy)
}
