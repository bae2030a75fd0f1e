package compiler

import (
	"fmt"

	"mdacache/internal/isa"
)

// Target describes the hierarchy a kernel is compiled for.
type Target struct {
	// Logical2D enables column instructions and column vectorization and
	// (with LayoutAuto) the tiled MDA-compliant layout.
	Logical2D bool

	// Layout overrides the automatic layout choice; used by the layout
	// ablation (§IV-C: a 1P1L hierarchy over a 2-D-optimised layout).
	Layout Layout

	// BaseAddr places the first array (default 4 KiB to keep address 0
	// free). Arrays are packed tile-aligned after it.
	BaseAddr uint64
}

// Program is a compiled kernel: arrays placed, references classified and
// annotated, ready to generate its memory-operation trace.
type Program struct {
	Kernel *Kernel
	Target Target

	layout    Layout
	footprint uint64
	nextPC    uint32
}

// Compile lays out the kernel's arrays for the target and assigns static
// instruction ids. The kernel is mutated (array placement) and must not be
// shared across concurrently-running programs.
func Compile(k *Kernel, t Target) (*Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	layout := t.Layout
	if layout == LayoutAuto {
		if t.Logical2D {
			layout = LayoutTiled
		} else {
			layout = LayoutLinear
		}
	}
	base := t.BaseAddr
	if base == 0 {
		base = 4096
	}
	base = (base + isa.TileSize - 1) &^ (isa.TileSize - 1)
	p := &Program{Kernel: k, Target: t, layout: layout}
	for _, a := range k.Arrays {
		sz := a.assignLayout(layout, base)
		sz = (sz + isa.TileSize - 1) &^ (isa.TileSize - 1)
		base += sz
		p.footprint += sz
	}
	// Assign PCs: one static instruction per (nest, stmt, ref).
	pc := uint32(1)
	for ni := range k.Nests {
		for si := range k.Nests[ni].Body {
			for ri := range k.Nests[ni].Body[si].Refs {
				k.Nests[ni].Body[si].Refs[ri].pc = pc
				pc++
			}
		}
	}
	p.nextPC = pc
	return p, nil
}

// Layout reports the layout Compile chose.
func (p *Program) Layout() Layout { return p.layout }

// FootprintBytes returns the total padded array footprint.
func (p *Program) FootprintBytes() uint64 { return p.footprint }

// Trace returns a streaming trace of the program's memory operations.
// Close it if abandoned before exhaustion.
func (p *Program) Trace() *isa.StreamTrace {
	return isa.Stream(func(emit func(isa.Op) bool) {
		g := &gen{p: p, emit: emit}
		g.run()
	})
}

// gen walks the iteration space emitting ops.
type gen struct {
	p       *Program
	emit    func(isa.Op) bool
	stopped bool
	pending uint32 // compute cycles to attach to the next op
}

func (g *gen) out(op isa.Op) {
	if g.stopped {
		return
	}
	op.Gap += g.pending
	g.pending = 0
	if !g.emit(op) {
		g.stopped = true
	}
}

func (g *gen) run() {
	for ni := range g.p.Kernel.Nests {
		if g.stopped {
			return
		}
		g.nest(resolveNest(&g.p.Kernel.Nests[ni], g.p.Target.Logical2D))
	}
}

// affine is an Expr resolved against one nest: each loop index is replaced
// by its loop's depth, so evaluation reads an []int environment indexed by
// depth instead of looking names up in a map.
type affine struct {
	cnst  int
	terms []affineTerm
}

type affineTerm struct{ depth, coeff int }

// resolve binds e's indices to the depths in depthOf. An index the nest
// does not declare (Validate rejects these) evaluates as 0, as an unbound
// name does under Expr.Eval.
func resolve(e Expr, depthOf map[string]int) affine {
	a := affine{cnst: e.Const()}
	for _, name := range e.Indices() {
		if d, ok := depthOf[name]; ok {
			a.terms = append(a.terms, affineTerm{depth: d, coeff: e.Coeff(name)})
		}
	}
	return a
}

func (a *affine) eval(env []int) int {
	v := a.cnst
	for _, t := range a.terms {
		v += t.coeff * env[t.depth]
	}
	return v
}

// cloop is a loop with resolved bounds.
type cloop struct{ lo, hi affine }

// cref is a reference with resolved subscripts and its innermost-loop
// analysis.
type cref struct {
	array    *Array
	row, col affine
	pc       uint32
	write    bool
	a        analysis
}

// cstmt is a statement with resolved references and its vectorization plan.
type cstmt struct {
	compute   uint32
	vectorize bool
	refs      []cref
}

// cnest is a nest prepared for generation: its loops, statements and their
// plans depend only on the nest and the target, so they are built once per
// nest rather than once per run of the innermost loop.
type cnest struct {
	loops []cloop
	body  []cstmt
}

func resolveNest(n *Nest, logical2D bool) *cnest {
	depthOf := make(map[string]int, len(n.Loops))
	cn := &cnest{loops: make([]cloop, len(n.Loops)), body: make([]cstmt, len(n.Body))}
	for d, l := range n.Loops {
		// Bounds see only the enclosing loops, as in Validate.
		cn.loops[d] = cloop{lo: resolve(l.Lo, depthOf), hi: resolve(l.Hi, depthOf)}
		depthOf[l.Index] = d
	}
	var plans []stmtPlan
	if len(n.Loops) > 0 {
		enclosing := make([]string, 0, len(n.Loops)-1)
		for _, l := range n.Loops[:len(n.Loops)-1] {
			enclosing = append(enclosing, l.Index)
		}
		v := n.Loops[len(n.Loops)-1].Index
		plans = make([]stmtPlan, len(n.Body))
		for si, s := range n.Body {
			plans[si] = planStmt(s, v, enclosing, logical2D)
		}
	}
	for si, s := range n.Body {
		cs := &cn.body[si]
		cs.compute = uint32(s.Compute)
		cs.refs = make([]cref, len(s.Refs))
		if plans != nil {
			cs.vectorize = plans[si].vectorize
		}
		for ri, ref := range s.Refs {
			cr := cref{
				array: ref.Array, pc: ref.pc, write: ref.Write,
				row: resolve(ref.Row, depthOf), col: resolve(ref.Col, depthOf),
			}
			if plans != nil {
				cr.a = plans[si].refs[ri]
			} else {
				cr.a.orient = analyzeOrientStatic(ref, logical2D)
			}
			cs.refs[ri] = cr
		}
	}
	return cn
}

func (g *gen) nest(n *cnest) {
	env := make([]int, len(n.loops))
	if len(n.loops) == 0 {
		// Straight-line: every ref executes once, loads before stores.
		for si := range n.body {
			s := &n.body[si]
			g.pending += s.compute
			for ri := range s.refs {
				if !s.refs[ri].write {
					g.scalarRef(&s.refs[ri], env)
				}
			}
			for ri := range s.refs {
				if s.refs[ri].write {
					g.scalarRef(&s.refs[ri], env)
				}
			}
		}
		return
	}
	g.loops(n, 0, env)
}

// loops recurses over the outer loops; the innermost level runs the
// vectorization plan.
func (g *gen) loops(n *cnest, depth int, env []int) {
	if g.stopped {
		return
	}
	l := &n.loops[depth]
	lo, hi := l.lo.eval(env), l.hi.eval(env)
	if depth == len(n.loops)-1 {
		g.innermost(n, env, depth, lo, hi)
		return
	}
	for v := lo; v < hi && !g.stopped; v++ {
		env[depth] = v
		g.loops(n, depth+1, env)
	}
}

// innermost executes one instance of the innermost loop (index env[v]):
// hoisted loads, peel/vector/tail per statement plan, hoisted stores.
func (g *gen) innermost(n *cnest, env []int, v, lo, hi int) {
	if hi <= lo {
		return
	}

	// Hoisted loads (invariant reads) once per instance.
	env[v] = lo
	for si := range n.body {
		for ri := range n.body[si].refs {
			r := &n.body[si].refs[ri]
			if r.a.class == refInvariant && !r.write {
				g.scalarRef(r, env)
			}
		}
	}

	for si := range n.body {
		s := &n.body[si]
		if s.vectorize {
			x := lo
			for x < hi && x%8 != 0 {
				g.scalarIter(s, env, v, x)
				x++
			}
			for x+8 <= hi {
				g.vectorChunk(s, env, v, x)
				x += 8
			}
			for x < hi {
				g.scalarIter(s, env, v, x)
				x++
			}
		} else {
			for x := lo; x < hi && !g.stopped; x++ {
				g.scalarIter(s, env, v, x)
			}
		}
	}

	// Hoisted stores (invariant writes) once per instance.
	env[v] = lo
	for si := range n.body {
		for ri := range n.body[si].refs {
			r := &n.body[si].refs[ri]
			if r.a.class == refInvariant && r.write {
				g.scalarRef(r, env)
			}
		}
	}
}

// scalarIter emits the statement's non-invariant refs for iteration x.
func (g *gen) scalarIter(s *cstmt, env []int, v, x int) {
	env[v] = x
	g.pending += s.compute
	for ri := range s.refs {
		if s.refs[ri].a.class == refInvariant {
			continue
		}
		g.scalarRef(&s.refs[ri], env)
	}
}

// vectorChunk emits the statement's refs for iterations [x, x+8).
func (g *gen) vectorChunk(s *cstmt, env []int, v, x int) {
	env[v] = x
	g.pending += s.compute
	for ri := range s.refs {
		r := &s.refs[ri]
		switch r.a.class {
		case refInvariant:
			continue
		case refRowStream, refColStream:
			g.vectorRef(r, env, v, x)
		default:
			panic("compiler: irregular ref in vectorized statement")
		}
	}
}

// vectorRef emits the vector op(s) covering elements x+offset .. x+offset+7
// along the streaming dimension. Aligned accesses are one line; offset
// (unaligned) loads cover two.
func (g *gen) vectorRef(r *cref, env []int, v, x int) {
	kind := isa.Load
	if r.write {
		kind = isa.Store
	}
	// Element coordinates at the chunk start.
	env[v] = x
	first := r.array.Addr(r.row.eval(env), r.col.eval(env))
	env[v] = x + 7
	last := r.array.Addr(r.row.eval(env), r.col.eval(env))
	env[v] = x

	orient := r.a.orient
	lineA := isa.LineOf(first, orient)
	lineB := isa.LineOf(last, orient)
	g.out(isa.Op{Addr: lineA.Base, PC: r.pc, Kind: kind, Orient: orient, Vector: true})
	if lineB != lineA {
		if r.write {
			panic("compiler: unaligned vector store should have been rejected by planStmt")
		}
		g.out(isa.Op{Addr: lineB.Base, PC: r.pc, Kind: kind, Orient: orient, Vector: true})
	}
}

// scalarRef emits one scalar op for the reference at the current env.
func (g *gen) scalarRef(r *cref, env []int) {
	kind := isa.Load
	if r.write {
		kind = isa.Store
	}
	addr := r.array.Addr(r.row.eval(env), r.col.eval(env))
	g.out(isa.Op{Addr: addr, PC: r.pc, Kind: kind, Orient: r.a.orient})
}

// analyzeOrientStatic derives the preference for straight-line refs: row
// unless the reference clearly walks a column (constant col, which we cannot
// tell statically) — per §IV-B(a) undiscerned preferences are row.
func analyzeOrientStatic(_ Ref, _ bool) isa.Orient { return isa.Row }

// Mix is the Fig. 10 access-type distribution, by operation count and by
// data volume (scalar ops move 8 bytes, vector ops 64).
type Mix struct {
	Ops   [2][2]uint64 // [orient][scalar=0 / vector=1]
	Bytes [2][2]uint64
}

// Total returns total bytes.
func (m *Mix) Total() uint64 {
	var t uint64
	for o := 0; o < 2; o++ {
		for s := 0; s < 2; s++ {
			t += m.Bytes[o][s]
		}
	}
	return t
}

// Share returns the fraction of data volume in (orient, vector) class.
func (m *Mix) Share(o isa.Orient, vector bool) float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	s := 0
	if vector {
		s = 1
	}
	return float64(m.Bytes[o][s]) / float64(t)
}

// ColShare returns the column fraction of data volume.
func (m *Mix) ColShare() float64 {
	return m.Share(isa.Col, false) + m.Share(isa.Col, true)
}

// MeasureMix drains a fresh trace of the program and tallies the access-type
// distribution.
func (p *Program) MeasureMix() Mix {
	tr := p.Trace()
	defer tr.Close()
	var m Mix
	for {
		op, ok := tr.Next()
		if !ok {
			return m
		}
		s, bytes := 0, uint64(isa.WordSize)
		if op.Vector {
			s, bytes = 1, isa.LineSize
		}
		m.Ops[op.Orient][s]++
		m.Bytes[op.Orient][s] += bytes
	}
}

// String summarises the program.
func (p *Program) String() string {
	return fmt.Sprintf("%s [%s layout, %d arrays, %.1f KiB]",
		p.Kernel.Name, p.layout, len(p.Kernel.Arrays), float64(p.footprint)/1024)
}
