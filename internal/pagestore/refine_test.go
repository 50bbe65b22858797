package pagestore_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"scout/internal/dataset"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/rtree"
)

// TestObjectLayout pins the one-cache-line-per-object layout: a page of
// DefaultObjectsPerPage objects is exactly the 4 KB it models.
func TestObjectLayout(t *testing.T) {
	if got := unsafe.Sizeof(pagestore.Object{}); got != 64 {
		t.Errorf("Object is %d bytes, want 64", got)
	}
	if pagestore.DefaultObjectsPerPage*64 != pagestore.PageSizeBytes {
		t.Errorf("%d objects x 64 B != %d-byte page", pagestore.DefaultObjectsPerPage, pagestore.PageSizeBytes)
	}
}

// refineOracle is the per-object loop AppendMatches replaced: every page's
// IDs, each object fetched by ID and tested with the one-object definition.
func refineOracle(s *pagestore.Store, r geom.Region, pages []pagestore.PageID) []pagestore.ObjectID {
	var out []pagestore.ObjectID
	for _, p := range pages {
		for _, id := range s.PageObjects(p) {
			if pagestore.Matches(r, s.Object(id)) {
				out = append(out, id)
			}
		}
	}
	return out
}

func checkRefine(t *testing.T, s *pagestore.Store, r geom.Region, pages []pagestore.PageID) int {
	t.Helper()
	got := s.AppendMatches(nil, r, pages)
	want := refineOracle(s, r, pages)
	if len(got) != len(want) {
		t.Fatalf("region %v over %d pages: kernel returned %d objects, per-object loop %d", r, len(pages), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("region %v: result %d is object %d, per-object loop has %d", r, i, got[i], want[i])
		}
	}
	return len(got)
}

func randUnit(rng *rand.Rand) geom.Vec3 {
	for {
		v := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if v.Len() > 1e-6 {
			return v.Normalize()
		}
	}
}

// TestAppendMatchesEqualsPerObjectLoop is the kernel's differential test: on
// all four dataset kinds, for 10 000 random boxes and 10 000 random frusta
// each, AppendMatches returns the same IDs in the same order as the
// per-object loop over the index's candidate pages (plus two pages the index
// did not name, which must contribute whatever Matches says).
func TestAppendMatchesEqualsPerObjectLoop(t *testing.T) {
	const regions = 10_000
	neuro := dataset.SmallNeuroConfig()
	artery := dataset.DefaultArteryConfig()
	artery.NumObjects = 40_000
	lung := dataset.DefaultLungConfig()
	lung.NumObjects = 40_000
	for _, ds := range []*dataset.Dataset{
		dataset.GenerateNeuro(neuro),
		dataset.GenerateArtery(artery),
		dataset.GenerateLung(lung),
		dataset.GenerateRoad(dataset.SmallRoadConfig()),
	} {
		t.Run(ds.Name, func(t *testing.T) {
			store := pagestore.NewStore(ds.Objects)
			tree, err := rtree.BulkLoad(store, rtree.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(ds.Name)) * 7919))
			// Regions are sized in units of the mean object extent so every
			// dataset sees a spread from "a few objects" to "a few pages".
			var unit float64
			for i := 0; i < 1000; i++ {
				unit += store.Object(pagestore.ObjectID(rng.Intn(store.NumObjects()))).Bounds().Size().Len()
			}
			unit /= 1000
			anchor := func() geom.Vec3 {
				o := store.Object(pagestore.ObjectID(rng.Intn(store.NumObjects())))
				return o.Seg.At(rng.Float64()).Add(randUnit(rng).Scale(rng.Float64() * unit))
			}
			candidates := func(r geom.Region) []pagestore.PageID {
				pages := tree.QueryPages(r, nil)
				for i := 0; i < 2; i++ {
					pages = append(pages, pagestore.PageID(rng.Intn(store.NumPages())))
				}
				return pages
			}
			matched := 0
			for i := 0; i < regions; i++ {
				sides := geom.V(rng.Float64(), rng.Float64(), rng.Float64()).Scale(unit * 5 * rng.Float64())
				box := geom.BoxAt(anchor(), sides)
				matched += checkRefine(t, store, box, candidates(box))
			}
			if matched == 0 {
				t.Fatal("no box matched anything; the test exercises nothing")
			}
			matched = 0
			for i := 0; i < regions; i++ {
				dir := randUnit(rng)
				up := geom.V(0, 0, 1)
				if math.Abs(dir.Z) > 0.9 {
					up = geom.V(1, 0, 0)
				}
				vol := math.Pow(unit*(0.5+2.5*rng.Float64()), 3)
				f := geom.FrustumWithVolume(anchor(), dir, up, 0.4+rng.Float64(), 0.7+rng.Float64(), vol)
				matched += checkRefine(t, store, f, candidates(f))
			}
			if matched == 0 {
				t.Fatal("no frustum matched anything; the test exercises nothing")
			}
		})
	}
}

// TestAppendMatchesDoesNotAllocate gates what BenchmarkRefine reports: with
// dst pre-sized, the kernel allocates nothing on either branch, whether a
// box comes by value or by pointer.
func TestAppendMatchesDoesNotAllocate(t *testing.T) {
	ds := dataset.GenerateNeuro(dataset.SmallNeuroConfig())
	store := pagestore.NewStore(ds.Objects)
	tree, err := rtree.BulkLoad(store, rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	at := store.Object(0).Centroid()
	box := geom.CubeAt(at, 80_000)
	for name, r := range map[string]geom.Region{
		"aabb":         box,
		"frustum":      geom.FrustumWithVolume(at, geom.V(1, 0, 0), geom.V(0, 0, 1), 1.0, 1.3, 80_000),
		"aabb pointer": &box,
	} {
		pages := tree.QueryPages(r, nil)
		dst := store.AppendMatches(nil, r, pages)
		if len(dst) == 0 {
			t.Fatalf("%s: region matches nothing", name)
		}
		if allocs := testing.AllocsPerRun(20, func() { dst = store.AppendMatches(dst[:0], r, pages) }); allocs != 0 {
			t.Errorf("%s: %v allocs per refine, want 0", name, allocs)
		}
	}
}

// nudges returns v and its neighbours one and two floats away on each side.
func nudges(v float64) [5]float64 {
	up1 := math.Nextafter(v, math.Inf(1))
	dn1 := math.Nextafter(v, math.Inf(-1))
	return [5]float64{v, up1, math.Nextafter(up1, math.Inf(1)), dn1, math.Nextafter(dn1, math.Inf(-1))}
}

// TestAppendMatchesAdversarialBoxes aims boxes at the places where the
// kernel's shortcuts (endpoint inside: accept; start endpoint outside a face
// and the other one short of it by more than the margin: reject) could part
// ways with the slab clip that defines the result: faces exactly on a
// segment endpoint, on the endpoint pushed out by the radius, a relative
// 1e-13, 1e-12 and 1e-11 of the segment's extent either side of those (the
// reject's margin is 1e-12), and zero, one and two floats either side of all
// of them; against general, axis-parallel, nearly-degenerate and zero-length
// segments, with and without a radius.
func TestAppendMatchesAdversarialBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(20120827))
	var objs []pagestore.Object
	radii := []float64{0, 0, 0.1, 1.0 / 3, 2.5}
	for i := 0; i < 240; i++ {
		a := geom.V(rng.Float64()*40-20, rng.Float64()*40-20, rng.Float64()*40-20)
		d := randUnit(rng).Scale(0.5 + 6*rng.Float64())
		switch i % 6 {
		case 1: // parallel to one axis
			d.Y, d.Z = 0, 0
		case 2: // in an axis plane
			d.Z = 0
		case 3: // zero length
			d = geom.Vec3{}
		case 4: // below ClipAABB's 1e-15 "parallel" threshold on one axis
			d.X = 5e-16
		case 5: // endpoints on round numbers, so faces can coincide exactly
			a = geom.V(math.Round(a.X), math.Round(a.Y), math.Round(a.Z))
			d = geom.V(math.Round(d.X*2), math.Round(d.Y*2), math.Round(d.Z*2))
		}
		objs = append(objs, pagestore.Object{Seg: geom.Seg(a, a.Add(d)), Radius: radii[rng.Intn(len(radii))]})
	}
	targets := append([]pagestore.Object(nil), objs...)
	store := pagestore.NewStore(objs)
	order := make([]pagestore.ObjectID, len(objs))
	for i, j := range rng.Perm(len(objs)) {
		order[i] = pagestore.ObjectID(j)
	}
	if err := store.Paginate(order, pagestore.DefaultObjectsPerPage); err != nil {
		t.Fatal(err)
	}
	pages := make([]pagestore.PageID, store.NumPages())
	for p := range pages {
		pages[p] = pagestore.PageID(p)
	}

	boxes, matched := 0, 0
	for _, o := range targets {
		seg := o.Seg.Bounds()
		for axis := 0; axis < 3; axis++ {
			lo, hi := seg.Min.Component(axis), seg.Max.Component(axis)
			faces := []float64{lo, hi, lo - o.Radius, hi + o.Radius, lo + o.Radius, hi - o.Radius}
			// Either side of the margin reject's own boundary: the far
			// endpoint A a segment's extent q beyond the face, the near one B
			// beyond it (or short of it) by q times 1e-13, 1e-12, 1e-11.
			for _, rel := range []float64{1e-13, 1e-12, 1e-11} {
				for _, shift := range []float64{-o.Radius, o.Radius} {
					d := (hi - lo) * rel
					faces = append(faces, lo+shift-d, lo+shift+d, hi+shift-d, hi+shift+d)
				}
			}
			for _, face := range faces {
				for _, v := range nudges(face) {
					for _, above := range []bool{false, true} {
						// The other two axes cover the object generously or
						// only partly, so this axis decides or shares.
						box := o.Bounds().Inflate(1)
						if rng.Intn(3) == 0 {
							box = geom.BoxAt(o.Seg.At(rng.Float64()), geom.V(1, 1, 1).Scale(0.2+2*rng.Float64()))
						}
						mn, mx := box.Min, box.Max
						set := func(p *geom.Vec3, x float64) {
							switch axis {
							case 0:
								p.X = x
							case 1:
								p.Y = x
							default:
								p.Z = x
							}
						}
						if above { // the box's lower face sits at v
							set(&mn, v)
							set(&mx, v+3)
						} else { // its upper face does
							set(&mn, v-3)
							set(&mx, v)
						}
						matched += checkRefine(t, store, geom.AABB{Min: mn, Max: mx}, pages)
						boxes++
					}
				}
			}
		}
	}
	if matched == 0 || matched == boxes*len(objs) {
		t.Fatalf("%d boxes matched %d objects in total: degenerate", boxes, matched)
	}
	// An empty box matches nothing, whatever radius inflates it.
	empty := geom.AABB{Min: geom.V(1, 1, 1), Max: geom.V(0.5, 3, 3)}
	if n := checkRefine(t, store, empty, pages); n != 0 {
		t.Errorf("empty box matched %d objects", n)
	}
}

// TestAppendMatchesFrustumEdgeCases aims frusta at the places where the
// frustum branch — object bounds built in place with plain compares, then the
// shared plane test — could part ways with Matches' Object.Bounds: zero-length
// segments, zero radius, endpoint coordinates of either zero (a compare keeps
// the other zero than math.Min does), and planes that pass exactly through a
// corner of an object's bounds. Boxes, by pointer, run the box branch over
// the same objects.
func TestAppendMatchesFrustumEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	below := math.Nextafter(0, math.Inf(-1))
	objs := []pagestore.Object{
		// The near plane of the first frustum below is x = 0. Bounds corner
		// exactly on it: a match. One float short of it: none.
		0: {Seg: geom.Seg(geom.V(-2, 0, 0), geom.V(-1, 0, 0)), Radius: 1},
		1: {Seg: geom.Seg(geom.V(-2, 0, 0), geom.V(math.Nextafter(-1, math.Inf(-1)), 0, 0)), Radius: 1},
		2: {Seg: geom.Seg(geom.V(0, 0, 0), geom.V(0, 0, 0))},
		3: {Seg: geom.Seg(geom.V(negZero, negZero, negZero), geom.V(0, 0, 0))},
		4: {Seg: geom.Seg(geom.V(0, 0, 0), geom.V(negZero, negZero, negZero))},
		5: {Seg: geom.Seg(geom.V(below, 0, 0), geom.V(below, 0, 0))},
	}
	rng := rand.New(rand.NewSource(16))
	zeros := []float64{0, negZero}
	snap := func(v geom.Vec3) geom.Vec3 {
		if rng.Intn(3) == 0 {
			v.X = zeros[rng.Intn(2)]
		}
		if rng.Intn(3) == 0 {
			v.Y = zeros[rng.Intn(2)]
		}
		if rng.Intn(3) == 0 {
			v.Z = zeros[rng.Intn(2)]
		}
		return v
	}
	radii := []float64{0, 0, 0.25, 1}
	for i := 0; i < 400; i++ {
		a := snap(geom.V(rng.Float64()*6-3, rng.Float64()*6-3, rng.Float64()*6-3))
		b := a // zero length, both endpoints the same zeros
		switch i % 3 {
		case 1:
			b = snap(a.Add(randUnit(rng).Scale(2 * rng.Float64())))
		case 2: // zero length up to the sign of its zeros
			b = snap(a)
		}
		objs = append(objs, pagestore.Object{Seg: geom.Seg(a, b), Radius: radii[rng.Intn(len(radii))]})
	}
	store := pagestore.NewStore(objs)
	order := make([]pagestore.ObjectID, len(objs))
	for i, j := range rng.Perm(len(objs)) {
		order[i] = pagestore.ObjectID(j)
	}
	if err := store.Paginate(order, pagestore.DefaultObjectsPerPage); err != nil {
		t.Fatal(err)
	}
	pages := make([]pagestore.PageID, store.NumPages())
	for p := range pages {
		pages[p] = pagestore.PageID(p)
	}

	// Near plane through the origin, looking along +x.
	f := geom.NewFrustum(geom.V(-5, 0, 0), geom.V(1, 0, 0), geom.V(0, 0, 1), 1.0, 1.3, 5, 50)
	checkRefine(t, store, f, pages)
	got := map[pagestore.ObjectID]bool{}
	for _, id := range store.AppendMatches(nil, f, pages) {
		got[id] = true
	}
	for id, want := range []bool{0: true, 1: false, 2: true, 3: true, 4: true, 5: false} {
		if id := pagestore.ObjectID(id); got[id] != want {
			t.Errorf("object %d (%+v) against the plane x = 0: matched %v, want %v", id, store.Object(id), got[id], want)
		}
	}

	// Near planes through the origin along every axis, both ways; then
	// frusta and boxes of all sizes around it.
	regions, matched := 0, 0
	check := func(r geom.Region) {
		matched += checkRefine(t, store, r, pages)
		regions++
	}
	for axis := 0; axis < 3; axis++ {
		for _, sign := range []float64{-1, 1} {
			var dir geom.Vec3
			up := geom.V(0, 0, 1)
			switch axis {
			case 0:
				dir.X = sign
			case 1:
				dir.Y = sign
			default:
				dir.Z, up = sign, geom.V(1, 0, 0)
			}
			check(geom.NewFrustum(dir.Scale(-5), dir, up, 1.0, 1.3, 5, 50))
		}
	}
	for i := 0; i < 2000; i++ {
		eye := geom.V(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4)
		dir, up := randUnit(rng), geom.V(0, 0, 1)
		if math.Abs(dir.Z) > 0.9 {
			up = geom.V(1, 0, 0)
		}
		vol := math.Pow(0.2+3*rng.Float64(), 3)
		check(geom.FrustumWithVolume(eye, dir, up, 0.4+rng.Float64(), 0.7+rng.Float64(), vol))
		box := geom.CubeAt(eye, vol)
		check(&box)
	}
	if matched == 0 || matched == regions*len(objs) {
		t.Fatalf("%d regions matched %d objects in total: degenerate", regions, matched)
	}
}

// TestPaginateClustersInPlace is the storage-order property: after any
// pagination — and after a second, different one over the already-clustered
// store — every object is still reachable by its ID with its geometry
// untouched, each page's IDs and its contiguous run of objects agree, and
// the page bounds are those of a fresh store paginated the same way.
func TestPaginateClustersInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 1000
	objs := make([]pagestore.Object, n)
	for i := range objs {
		a := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		objs[i] = pagestore.Object{Seg: geom.Seg(a, a.Add(randUnit(rng))), Radius: rng.Float64(), Struct: int32(i % 7)}
	}
	want := append([]pagestore.Object(nil), objs...)
	for i := range want {
		want[i].ID = pagestore.ObjectID(i)
	}
	perm := func() []pagestore.ObjectID {
		order := make([]pagestore.ObjectID, n)
		for i, j := range rng.Perm(n) {
			order[i] = pagestore.ObjectID(j)
		}
		return order
	}
	identity := make([]pagestore.ObjectID, n)
	reversed := make([]pagestore.ObjectID, n)
	for i := range identity {
		identity[i] = pagestore.ObjectID(i)
		reversed[i] = pagestore.ObjectID(n - 1 - i)
	}

	s := pagestore.NewStore(objs)
	if s.PageOf(0) != pagestore.InvalidPage {
		t.Errorf("PageOf before pagination = %d, want InvalidPage", s.PageOf(0))
	}
	steps := []struct {
		order   []pagestore.ObjectID
		perPage int
	}{{perm(), 64}, {perm(), 87}, {identity, 64}, {reversed, 30}, {perm(), 1}, {perm(), n + 5}}
	for step, st := range steps {
		if err := s.Paginate(st.order, st.perPage); err != nil {
			t.Fatal(err)
		}
		fresh := pagestore.NewStore(append([]pagestore.Object(nil), want...))
		if err := fresh.Paginate(st.order, st.perPage); err != nil {
			t.Fatal(err)
		}
		if s.NumPages() != fresh.NumPages() || s.NumPages() != (n+st.perPage-1)/st.perPage {
			t.Fatalf("step %d: %d pages, fresh store has %d", step, s.NumPages(), fresh.NumPages())
		}
		for id := range want {
			if got := s.Object(pagestore.ObjectID(id)); got != want[id] {
				t.Fatalf("step %d: Object(%d) = %+v, want %+v", step, id, got, want[id])
			}
		}
		slot := 0
		for p := pagestore.PageID(0); int(p) < s.NumPages(); p++ {
			ids, run := s.PageObjects(p), s.PageSlice(p)
			if len(ids) != len(run) || len(ids) == 0 || len(ids) > st.perPage {
				t.Fatalf("step %d page %d: %d ids, %d objects, perPage %d", step, p, len(ids), len(run), st.perPage)
			}
			for i := range ids {
				if run[i].ID != ids[i] || ids[i] != st.order[slot] {
					t.Fatalf("step %d page %d slot %d: object %d, listed %d, ordered %d", step, p, i, run[i].ID, ids[i], st.order[slot])
				}
				if s.PageOf(ids[i]) != p {
					t.Fatalf("step %d: PageOf(%d) = %d, stored in %d", step, ids[i], s.PageOf(ids[i]), p)
				}
				slot++
			}
			if s.PageBounds(p) != fresh.PageBounds(p) {
				t.Fatalf("step %d page %d: bounds %v, fresh store has %v", step, p, s.PageBounds(p), fresh.PageBounds(p))
			}
		}
		if slot != n {
			t.Fatalf("step %d: pages hold %d objects, want %d", step, slot, n)
		}
	}

	// A rejected order must leave the clustered store as it was.
	before := append([]pagestore.Object(nil), s.PageSlice(0)...)
	bad := perm()
	bad[3] = bad[4]
	if err := s.Paginate(bad, 64); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if !reflect.DeepEqual(before, s.PageSlice(0)) || s.ObjectsPerPage() != n+5 {
		t.Error("rejected Paginate modified the store")
	}
}
