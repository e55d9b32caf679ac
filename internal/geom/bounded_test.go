package geom

import (
	"math"
	"math/rand"
	"testing"
)

// clipFourPass is the box clip with no pass skipping: validity check,
// orientation, then all four half-plane passes unconditionally. It is the
// reference ClipBounded's identity-pass argument is tested against.
func clipFourPass(c *Clipper, t Triangle, b AABB) Polygon {
	if !(t.Area() > 0) || !(b.Min.X < b.Max.X) || !(b.Min.Y < b.Max.Y) {
		return c.out[:0]
	}
	t = t.CCW()
	c.out = append(c.out[:0], t.A, t.B, t.C)
	c.clipX(b.Min.X, true)
	c.clipX(b.Max.X, false)
	c.clipY(b.Min.Y, true)
	c.clipY(b.Max.Y, false)
	return c.out
}

// splitFanArea is the fan split that recomputes each emitted triangle's
// area: the Jacobian reference for SplitFanJac.
func splitFanArea(p Polygon, minArea float64) []FanTriangle {
	if !(minArea >= 0) {
		minArea = 0
	}
	var out []FanTriangle
	for i := 1; i+1 < len(p); i++ {
		t := Triangle{p[0], p[i], p[i+1]}
		if t.Area() > minArea {
			t = t.CCW()
			out = append(out, FanTriangle{Triangle: t, Jac: 2 * t.Area()})
		}
	}
	return out
}

func samePolygon(a, b Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// boundedClipCases yields triangle/box pairs that stress the identity-pass
// skip: vertices exactly on box lines and corners, triangles inside one
// box, slivers, clockwise input, and random overlaps.
func boundedClipCases(r *rand.Rand, n int) (tris []Triangle, boxes []AABB) {
	lattice := func() float64 { return float64(r.Intn(9)) / 8 }
	for i := 0; i < n; i++ {
		var t Triangle
		switch i % 6 {
		case 0: // vertices on the 1/8 lattice: on box lines and corners
			t = Tri(Pt(lattice(), lattice()), Pt(lattice(), lattice()), Pt(lattice(), lattice()))
		case 1: // small triangle, often inside one box
			x, y := r.Float64(), r.Float64()
			t = Tri(Pt(x, y), Pt(x+0.01*r.Float64(), y), Pt(x, y+0.01*r.Float64()))
		case 2: // sliver
			x, y := r.Float64(), r.Float64()
			t = Tri(Pt(x, y), Pt(x+r.Float64(), y+1e-12*r.Float64()), Pt(x+0.5, y+1e-13))
		case 3: // clockwise
			t = randTri(r)
			t = Tri(t.A, t.C, t.B)
		case 4: // one vertex on a box line, others random
			t = Tri(Pt(0.25, r.Float64()), Pt(r.Float64(), r.Float64()), Pt(r.Float64(), r.Float64()))
		default:
			t = Tri(Pt(r.Float64()*1.5-0.25, r.Float64()*1.5-0.25),
				Pt(r.Float64()*1.5-0.25, r.Float64()*1.5-0.25),
				Pt(r.Float64()*1.5-0.25, r.Float64()*1.5-0.25))
		}
		tris = append(tris, t)
		// Kernel-cell-like boxes on the 1/8 lattice, plus a random one.
		x0, y0 := float64(r.Intn(8))/8, float64(r.Intn(8))/8
		boxes = append(boxes, Box(x0, y0, x0+0.125, y0+0.125))
		if i%3 == 0 {
			boxes[len(boxes)-1] = randBox(r)
		}
	}
	return tris, boxes
}

// TestClipBoundedMatchesClipTriangleBox: skipping identity passes changes
// nothing — ClipBounded returns ClipTriangleBox's, and the unconditional
// four-pass clip's, exact vertex sequence.
func TestClipBoundedMatchesClipTriangleBox(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	tris, boxes := boundedClipCases(r, 20000)
	var cb, ct, cf Clipper
	skipped := 0
	for i, tri := range tris {
		for _, box := range []AABB{boxes[i], boxes[(i*7+3)%len(boxes)], tri.Bounds(), tri.Bounds().Pad(1e-3)} {
			ref := clipFourPass(&cf, tri, box)
			viaBox := ct.ClipTriangleBox(tri, box)
			if !samePolygon(viaBox, ref) {
				t.Fatalf("case %d: ClipTriangleBox %v, four-pass %v", i, viaBox, ref)
			}
			if !(tri.Area() > 0) {
				continue
			}
			ccw, tb := tri.CCW(), tri.Bounds()
			got := cb.ClipBounded(ccw, tb, box)
			if !samePolygon(got, ref) {
				t.Fatalf("case %d: %v x %v: ClipBounded %v, ClipTriangleBox %v", i, tri, box, got, ref)
			}
			if tb.Min.X >= box.Min.X && tb.Max.X <= box.Max.X {
				skipped++
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no case exercised a skipped pass")
	}
}

// TestClipBoundedWholeTriangle: a triangle inside the box comes back as
// itself (all four passes skipped) and a degenerate box clips to nothing.
func TestClipBoundedWholeTriangle(t *testing.T) {
	var c Clipper
	tri := Tri(Pt(0.26, 0.26), Pt(0.27, 0.26), Pt(0.26, 0.27))
	got := c.ClipBounded(tri, tri.Bounds(), Box(0.25, 0.25, 0.375, 0.375))
	if !samePolygon(got, Polygon{tri.A, tri.B, tri.C}) {
		t.Fatalf("inside clip = %v, want the triangle", got)
	}
	for _, b := range []AABB{Box(0.3, 0, 0.3, 1), Box(1, 1, 0, 0), Box(math.NaN(), 0, 1, 1)} {
		if got := c.ClipBounded(tri, tri.Bounds(), b); len(got) != 0 {
			t.Fatalf("degenerate box %v clipped to %v", b, got)
		}
	}
}

// TestClipBoundedSplitFanJac: SplitFanJac emits SplitFan's triangles, and
// each Jacobian is bit-identical to 2·Area() of the emitted triangle.
func TestClipBoundedSplitFanJac(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tris, boxes := boundedClipCases(r, 5000)
	var c Clipper
	polys := []Polygon{
		{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)},
		{Pt(0, 0), Pt(0, 1), Pt(1, 1), Pt(1, 0)}, // clockwise: every fan triangle reoriented
		{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)},
		{Pt(0, 0), Pt(1, 0), Pt(1, 1e-16), Pt(0, 1)},
	}
	for i, tri := range tris {
		polys = append(polys, append(Polygon(nil), c.ClipTriangleBox(tri, boxes[i])...))
	}
	for i, p := range polys {
		for _, minArea := range []float64{0, 1e-14 * p.Area(), math.NaN()} {
			got := SplitFanJac(p, nil, minArea)
			want := splitFanArea(p, minArea)
			plain := SplitFan(p, nil, minArea)
			if len(got) != len(want) || len(got) != len(plain) {
				t.Fatalf("poly %d: %d fan triangles, reference %d, SplitFan %d", i, len(got), len(want), len(plain))
			}
			for k := range got {
				if got[k].Triangle != want[k].Triangle || got[k].Triangle != plain[k] ||
					math.Float64bits(got[k].Jac) != math.Float64bits(want[k].Jac) {
					t.Fatalf("poly %d tri %d: %+v, reference %+v", i, k, got[k], want[k])
				}
			}
		}
	}
}

// TestClipBoundedRunsPassesAfterCut: a crossing point can round outside
// the triangle's bounding box — here the x >= 0.6 pass interpolates the
// edge (0.5, −0.3)→(0.6, 0.1) at t = 1 and lands above y = 0.1 because
// −0.3 + (0.1 − (−0.3)) rounds up — so once a pass has cut, tb no longer
// proves later passes are the identity and ClipBounded must run them.
func TestClipBoundedRunsPassesAfterCut(t *testing.T) {
	tri := Tri(Pt(0.5, -0.3), Pt(0.6, 0.1), Pt(0.55, 0.05)) // CCW
	box := Box(0.6, -1, 2, 0.1)
	tb := tri.Bounds()
	if tb.Max.Y != box.Max.Y {
		t.Fatalf("setup: tb.Max.Y = %v, want the box's %v", tb.Max.Y, box.Max.Y)
	}
	var c Clipper
	c.out = append(c.out[:0], tri.A, tri.B, tri.C)
	c.clipX(box.Min.X, true)
	overhang := false
	for _, v := range c.out {
		overhang = overhang || v.Y > tb.Max.Y
	}
	if !overhang {
		t.Fatalf("setup: cut polygon %v stays inside tb %v", c.out, tb)
	}
	var cf Clipper
	want := clipFourPass(&cf, tri, box)
	if got := c.ClipBounded(tri, tb, box); !samePolygon(got, want) {
		t.Fatalf("ClipBounded %v, four-pass %v", got, want)
	}
}
