package core

// The 4D AABB-tree detector (Bak & Hobbs; see PAPERS.md): instead of
// hashing every sampled position into Eq. 1 grid cells step by step, each
// satellite gets one axis-aligned box per *window* of W consecutive
// sampling steps — the spatial hull of its W sampled positions, padded by
// one cell — and a bounding-volume hierarchy over those boxes answers
// "whose windows could become cell-neighbours". Box overlap is the time
// dimension made implicit: two boxes from the same window share the same
// time span, so overlapping padded hulls is exactly the 4D position-time
// box intersection of the reference.
//
// Candidate criterion: the grid scan emits a pair when the two satellites
// occupy the same or adjacent Eq. 1 cells at a sampled step — a test that
// depends on where the cell boundaries happen to fall. The tree has no
// quantised cells, so it applies the alignment-free envelope of that
// test: the satellites' one-cell-padded per-step boxes overlap, i.e. the
// per-axis separation is ≤ 2·cell. Occupants of adjacent cells are
// < 2·cell apart per axis, so every pair any grid alignment could emit is
// inside the envelope; so in particular is Eq. 1's soundness bound
// (Euclidean distance ≤ cell at a sampled step), which is what guarantees
// no conjunction the grid can see escapes the tree. The envelope is
// deliberately a superset — the tree trades the grid's cell precision for
// build-once windows and pays with fatter candidate sets. The
// differential battery pins the refined results against the grid
// reference.
//
// Cost shape: one tree build per W steps replaces W grid
// reset/insert/freeze/scan rounds, at the price of fatter boxes (a W·s_ps
// second hull) and the coarser envelope above. Sparse or eccentric
// populations — deep-space catalogues, Molniya-class orbits — have hulls
// that rarely overlap, so the tree wins; dense populations make every
// hull overlap dozens of others and feed refinement more candidates than
// the grid's cells admit, so the per-step grid wins. The paperbench
// treecmp experiment captures both regimes.

import (
	"time"

	"repro/internal/lockfree"
	"repro/internal/propagation"
	"repro/internal/vec3"
)

func init() {
	register(frame{
		variant: VariantAABB,
		sps:     DefaultAABBSeconds,
		sample:  (*run).sampleWindows,
	}, "4D AABB tree: windowed position-time boxes, BVH overlap candidates, shared refine path")
}

// DefaultAABBSeconds is the AABB variant's default sampling step — the
// grid's fine step, since the post-check envelopes the grid's cell test
// at the same cell size. The post-check restores the grid criterion, so
// refinement applies the grid interval rule (two-cell crossing, §IV-C)
// unchanged.
const DefaultAABBSeconds = 1.0

// DefaultWindowSteps is the box window width W. Sixteen steps amortises the
// tree build well while keeping hulls short enough that the overlap set
// stays sparse outside dense shells. A span of fewer steps is one window.
const DefaultWindowSteps = 16

// aabbWindow is the per-window state the range closures below read: the
// window's step span, the window-contiguous sample buffer, the per-satellite
// boxes, and the tree built over them. The worker pool's fork/join provides the
// happens-before edge between the build side's writes and the workers'
// reads, exactly as with the grid run's published step state.
type aabbWindow struct {
	base   int                 // first step of the current window
	width  int                 // steps in the current window (≤ stride)
	stride int                 // sample-buffer stride per satellite (= W)
	pos    []propagation.State // sample i·stride+k = satellite i at step base+k
	boxes  []aabbBox           // one padded hull per satellite
	pad    float64             // cellSize/2
	tree   aabbTree
}

// aabbBox is one satellite's padded position hull over the current window.
type aabbBox struct {
	min, max vec3.V
}

func (b *aabbBox) expand(p vec3.V) {
	if p.X < b.min.X {
		b.min.X = p.X
	}
	if p.Y < b.min.Y {
		b.min.Y = p.Y
	}
	if p.Z < b.min.Z {
		b.min.Z = p.Z
	}
	if p.X > b.max.X {
		b.max.X = p.X
	}
	if p.Y > b.max.Y {
		b.max.Y = p.Y
	}
	if p.Z > b.max.Z {
		b.max.Z = p.Z
	}
}

func (b *aabbBox) pad(d float64) {
	b.min.X -= d
	b.min.Y -= d
	b.min.Z -= d
	b.max.X += d
	b.max.Y += d
	b.max.Z += d
}

func (b *aabbBox) overlaps(o *aabbBox) bool {
	return b.min.X <= o.max.X && o.min.X <= b.max.X &&
		b.min.Y <= o.max.Y && o.min.Y <= b.max.Y &&
		b.min.Z <= o.max.Z && o.min.Z <= b.max.Z
}

// aabbLeafSize is the BVH leaf capacity; small enough that leaf-vs-query
// box tests stay cheap, large enough to keep the node count ~n/4.
const aabbLeafSize = 8

// aabbTree is a flat mid-split BVH over the window boxes. The node and item
// slices are reused across windows, so the steady state allocates nothing.
type aabbTree struct {
	nodes []aabbNode
	items []int32 // population indices; leaves own contiguous ranges
	boxes []aabbBox
}

// aabbNode bounds the boxes of items[start:end). Internal nodes have
// left/right child indices and left ≥ 0; leaves have left = -1.
type aabbNode struct {
	box         aabbBox
	left, right int32
	start, end  int32
}

// build (re)builds the tree over boxes. Splits are spatial mid-splits on
// the longest centroid axis — O(n) partition per level, no sorting — with a
// halving fallback when every centroid lands on one side.
func (t *aabbTree) build(boxes []aabbBox) {
	t.boxes = boxes
	n := len(boxes)
	if cap(t.items) < n {
		t.items = make([]int32, n)
	} else {
		t.items = t.items[:n]
	}
	for i := range t.items {
		t.items[i] = int32(i)
	}
	t.nodes = t.nodes[:0]
	if n == 0 {
		return
	}
	t.buildNode(0, n)
}

// buildNode builds the subtree over items[start:end) and returns its index.
func (t *aabbTree) buildNode(start, end int) int32 {
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, aabbNode{})
	nb := t.boxes[t.items[start]]
	cmin := nb.min.Add(nb.max)
	cmax := cmin
	for i := start + 1; i < end; i++ {
		b := &t.boxes[t.items[i]]
		nb.expand(b.min)
		nb.expand(b.max)
		c := b.min.Add(b.max) // 2× centroid; the factor cancels in comparisons
		if c.X < cmin.X {
			cmin.X = c.X
		}
		if c.Y < cmin.Y {
			cmin.Y = c.Y
		}
		if c.Z < cmin.Z {
			cmin.Z = c.Z
		}
		if c.X > cmax.X {
			cmax.X = c.X
		}
		if c.Y > cmax.Y {
			cmax.Y = c.Y
		}
		if c.Z > cmax.Z {
			cmax.Z = c.Z
		}
	}
	node := aabbNode{box: nb, left: -1}
	if end-start <= aabbLeafSize {
		node.start, node.end = int32(start), int32(end)
		t.nodes[idx] = node
		return idx
	}
	ext := cmax.Sub(cmin)
	axis := 0
	if ext.Y > ext.X {
		axis = 1
	}
	if ext.Z > ext.X && ext.Z > ext.Y {
		axis = 2
	}
	var mid float64
	switch axis {
	case 0:
		mid = (cmin.X + cmax.X) / 2
	case 1:
		mid = (cmin.Y + cmax.Y) / 2
	default:
		mid = (cmin.Z + cmax.Z) / 2
	}
	lo, hi := start, end
	for lo < hi {
		b := &t.boxes[t.items[lo]]
		var c float64
		switch axis {
		case 0:
			c = b.min.X + b.max.X
		case 1:
			c = b.min.Y + b.max.Y
		default:
			c = b.min.Z + b.max.Z
		}
		if c < mid {
			lo++
		} else {
			hi--
			t.items[lo], t.items[hi] = t.items[hi], t.items[lo]
		}
	}
	if lo == start || lo == end { // degenerate spread: split by count
		lo = (start + end) / 2
	}
	left := t.buildNode(start, lo)
	right := t.buildNode(lo, end)
	node.left, node.right = left, right
	t.nodes[idx] = node
	return idx
}

// sampleWindows is the aabb's step 2 for every window of W steps: propagate
// each satellite through the window (sequentially in time, which keeps the
// warm-start precondition even though satellites are split across workers),
// hull and pad its samples into a box, build the tree, and append the
// box-overlap candidates — post-checked per shared step against the adjacency
// envelope — to the per-worker buffers; after the last window, collect them
// into r.keys. An incremental pass emits the pairs with a dirty member only.
func (r *run) sampleWindows() error {
	n, w := len(r.sats), min(DefaultWindowSteps, r.steps)
	win := &aabbWindow{
		stride: w,
		pos:    r.pool.GetStates(n * w),
		boxes:  make([]aabbBox, n),
		pad:    r.cellSize,
	}
	defer r.pool.PutStates(win.pos)
	r.win = win
	propFn := r.windowPropagateRange
	queryFn := r.windowQueryRange

	for base := 0; base < r.steps; base += w {
		if err := r.cancelled(); err != nil {
			return err
		}
		win.base = base
		win.width = w
		if base+win.width > r.steps {
			win.width = r.steps - base
		}

		// Propagation and hull construction — the insertion share.
		tIns := time.Now()
		if err := parallelFor(r.ctx, r.workers, n, propFn); err != nil {
			return err
		}
		r.stats.Insertion += time.Since(tIns)

		// Tree build — the AABB analogue of the grid's freeze compaction.
		tFz := time.Now()
		win.tree.build(win.boxes)
		r.stats.Freeze += time.Since(tFz)

		// Overlap query and per-step post-check — the detection share.
		tCD := time.Now()
		if err := parallelForWorkers(r.ctx, r.workers, n, queryFn); err != nil {
			return err
		}
		r.stats.Detection += time.Since(tCD)
		for s := base; s < base+win.width; s++ {
			r.observeStep(s, n)
		}
	}
	r.stats.Steps = r.steps
	r.collectPairs()
	return nil
}

// windowPropagateRange samples satellites [lo, hi) across the current
// window and builds their padded hull boxes. Each satellite's steps are
// visited in time order, so the per-satellite Kepler cache warm-starts
// exactly as in the sequential grid loop; ranges are disjoint across
// workers, so the cache needs no synchronisation beyond the join.
func (r *run) windowPropagateRange(lo, hi int) {
	win := r.win
	base, width, stride := win.base, win.width, win.stride
	for i := lo; i < hi; i++ {
		samples, kc := win.pos[i*stride:i*stride+width], &r.kcache[i]
		for k := 0; k < width; k++ {
			t := float64(base+k) * r.sps
			samples[k].Pos, samples[k].Vel, kc.E = r.prop.StateWarm(&r.sats[i], t, kc.E+kc.DeltaE)
		}
		b := aabbBox{min: samples[0].Pos, max: samples[0].Pos}
		for k := 1; k < width; k++ {
			b.expand(samples[k].Pos)
		}
		b.pad(win.pad)
		win.boxes[i] = b
	}
}

// windowQueryRange finds, for each satellite in [lo, hi), every
// higher-indexed satellite whose window box overlaps its own, post-checks
// each shared step against the adjacency envelope (per-axis separation
// ≤ 2·cellSize — the two one-cell-padded step boxes overlap), and appends
// the surviving packed pair keys to worker w's private buffer. In delta
// mode pairs with no dirty member are skipped before the post-check.
func (r *run) windowQueryRange(w, lo, hi int) {
	stack := make([]int32, 0, 64) // tree depth + 1; on the goroutine stack
	buf := r.scanBufs[w]
	win := r.win
	tree := &win.tree
	base, width, stride := win.base, win.width, win.stride
	reach := 2 * r.cellSize
	for i := lo; i < hi; i++ {
		q := &tree.boxes[i]
		idA := r.sats[i].ID
		dirtyA := r.dirty != nil && bitsetHas(r.dirty, idA)
		si := win.pos[i*stride : i*stride+width]
		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			nd := &tree.nodes[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if !q.overlaps(&nd.box) {
				continue
			}
			if nd.left >= 0 {
				stack = append(stack, nd.left, nd.right)
				continue
			}
			for _, j := range tree.items[nd.start:nd.end] {
				if int(j) <= i { // each unordered pair once, and never (i, i)
					continue
				}
				if !q.overlaps(&tree.boxes[j]) {
					continue
				}
				idB := r.sats[j].ID
				if r.dirty != nil && !dirtyA && !bitsetHas(r.dirty, idB) {
					continue
				}
				sj := win.pos[int(j)*stride : int(j)*stride+width]
				for k := 0; k < width; k++ {
					pa, pb := &si[k].Pos, &sj[k].Pos
					if dx := pa.X - pb.X; dx > reach || dx < -reach {
						continue
					}
					if dy := pa.Y - pb.Y; dy > reach || dy < -reach {
						continue
					}
					if dz := pa.Z - pb.Z; dz > reach || dz < -reach {
						continue
					}
					buf = append(buf, lockfree.PackPair(idA, idB, uint32(base+k)))
				}
			}
		}
	}
	r.scanBufs[w] = buf
}
