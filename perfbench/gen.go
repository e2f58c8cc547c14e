package main

import (
	"math"
	"math/rand"

	"pathcache"
	"pathcache/internal/workload"
)

// The benchmark's own input generators. Every stream is derived from the
// command-line seed through workload.SubSeed, so a seed fixes the data set
// and each caller's query sequence.
//
// workload.TwoSidedStream is deliberately not used: its uniform mix puts
// every corner within max/64 of one fixed point, and its Zipf mix returns
// about 95% of the data per query, so neither exercises the index the way
// a selective query spread over the key space does.

// domain is the coordinate range [0, domain) of every generated point.
const domain = int64(1) << 30

// query is a 3-sided predicate {A1 <= x <= A2, y >= B}; a 2-sided query
// {x >= A, y >= B} has A2 = MaxInt64.
type query struct{ A1, A2, B int64 }

func (q query) holds(p pathcache.Point) bool {
	return p.X >= q.A1 && p.X <= q.A2 && p.Y >= q.B
}

// Stream slots under the run seed, one per independent random source.
// Set-up repetition r warms with slotWarm+r; caller c of phase p draws its
// inputs from slotInputs+8p+c, and phase p draws its open-loop schedule
// from slotSchedule+p.
const (
	slotPoints   = 0
	slotSpots    = 1
	slotPreload  = 2
	slotWarm     = 8
	slotInputs   = 64
	slotSchedule = 1024
)

func newRand(seed int64, slot int) *rand.Rand {
	return rand.New(rand.NewSource(workload.SubSeed(seed, slot)))
}

// uniformPoints draws n points uniformly over the domain with IDs 1..n.
func uniformPoints(n int, seed int64) []pathcache.Point {
	rng := newRand(seed, slotPoints)
	pts := make([]pathcache.Point, n)
	for i := range pts {
		pts[i] = pathcache.Point{X: rng.Int63n(domain), Y: rng.Int63n(domain), ID: uint64(i + 1)}
	}
	return pts
}

// hyperbola places 2-sided corners on the constant-selectivity curve
// (1-a)(1-b) = s, with a and b as fractions of the domain: every query
// covers the same area s, so on uniform data it returns about s·n points
// wherever it lands. The position along the curve is log-uniform, which
// spreads corners from the top-left strip to the bottom-right strip.
type hyperbola struct{ s, logS float64 }

func newHyperbola(results float64, n int) hyperbola {
	s := results / float64(n)
	return hyperbola{s: s, logS: math.Log(s)}
}

// at maps a curve position r in [0, 1] to its corner.
func (h hyperbola) at(r float64) query {
	u := math.Exp(h.logS * r) // 1-a, in [s, 1]
	v := h.s / u              // 1-b
	return query{A1: frac(1 - u), A2: math.MaxInt64, B: frac(1 - v)}
}

func (h hyperbola) next(rng *rand.Rand) query { return h.at(rng.Float64()) }

func frac(f float64) int64 {
	v := int64(f * float64(domain))
	if v < 0 {
		return 0
	}
	if v >= domain {
		return domain - 1
	}
	return v
}

// xWindow is the scan-cold query: an x-window of a fixed share of the
// domain at a uniform position, with y cut so that a fixed share of the
// window's points qualifies.
type xWindow struct {
	width int64
	b     int64
}

func newXWindow(widthShare, yShare float64) xWindow {
	return xWindow{width: frac(widthShare), b: frac(1 - yShare)}
}

func (w xWindow) next(rng *rand.Rand) query {
	a1 := rng.Int63n(domain - w.width)
	return query{A1: a1, A2: a1 + w.width - 1, B: w.b}
}

// hotSpots is the serve-mixed request generator: read corners on a
// hyperbola, but concentrated on a few seeded positions with Zipf
// popularity, as hot keys are in served traffic; insert positions uniform.
type hotSpots struct {
	h     hyperbola
	spots []float64 // curve positions
}

const (
	numSpots  = 64
	zipfS     = 1.1
	spotJiter = 0.005 // curve-position jitter around a spot
)

func newHotSpots(h hyperbola, seed int64) hotSpots {
	rng := newRand(seed, slotSpots)
	spots := make([]float64, numSpots)
	for k := range spots {
		// Popularity rank k sits at the k-th point of the van der Corput
		// sequence, so the popular spots always spread evenly along the
		// curve; the seed only jitters them within their stratum. Placing
		// them at random instead makes the seed decide whether the hottest
		// spot fans out to every shard or to one.
		spots[k] = vanDerCorput(k+1) + (rng.Float64()-0.5)/numSpots
	}
	return hotSpots{h: h, spots: spots}
}

// vanDerCorput is the base-2 radical inverse of k.
func vanDerCorput(k int) float64 {
	v, f := 0.0, 0.5
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			v += f
		}
		f /= 2
	}
	return v
}

// spotStream is one caller's private view of the hot spots.
type spotStream struct {
	hotSpots
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (hs hotSpots) stream(rng *rand.Rand) *spotStream {
	return &spotStream{hotSpots: hs, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, numSpots-1)}
}

func (s *spotStream) query() query {
	r := s.spots[s.zipf.Uint64()] + (s.rng.Float64()*2-1)*spotJiter
	return s.h.at(math.Min(1, math.Max(0, r)))
}

// insertPoint draws an insert position uniformly over the domain, as the
// repository's served load (workload.PointStream) does.
func (s *spotStream) insertPoint() (int64, int64) {
	return s.rng.Int63n(domain), s.rng.Int63n(domain)
}

// preloadPoints draws perShard points uniformly within each shard's key
// range, round-robin over the shards, with IDs from firstID on. splits are
// the shards' split keys: shard i covers [splits[i-1], splits[i]).
func preloadPoints(splits []int64, perShard int, seed int64, firstID uint64) []pathcache.Point {
	rng := newRand(seed, slotPreload)
	bounds := append(append([]int64{0}, splits...), domain)
	pts := make([]pathcache.Point, 0, perShard*(len(bounds)-1))
	for k := 0; k < perShard; k++ {
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			pts = append(pts, pathcache.Point{X: lo + rng.Int63n(hi-lo), Y: rng.Int63n(domain), ID: firstID + uint64(len(pts))})
		}
	}
	return pts
}
