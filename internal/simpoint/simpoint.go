// Package simpoint implements the SimPoint 3.0 phase-analysis pipeline
// the paper uses for clustering interval feature vectors: sparse vectors
// are L1-normalized, randomly projected to a low dimension, clustered
// with weighted k-means across candidate cluster counts, and the best
// clustering under the Bayesian Information Criterion is selected. Each
// cluster contributes one representative interval (the member closest to
// the centroid) and a representation ratio (the cluster's share of total
// dynamic instructions) — the weights used to extrapolate whole-program
// performance from simulated subsets.
//
// SimPoint 3.0's support for variable-size intervals is modelled by
// weighting each interval's influence by its instruction count, both in
// the k-means objective and in the representation ratios.
package simpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gtpin/internal/features"
)

// Config controls the clustering pipeline.
type Config struct {
	// MaxK is the maximum number of clusters (and therefore selected
	// intervals); the paper uses 10. Fewer clusters may be returned if a
	// smaller k scores well under BIC.
	MaxK int
	// Dims is the random-projection dimensionality; SimPoint uses 15.
	Dims int
	// Seed drives k-means++ initialization and restarts.
	Seed int64
	// BICFrac is the fraction of the BIC score range a clustering must
	// reach to be chosen; SimPoint's default policy picks the smallest k
	// scoring at least 90% of the best.
	BICFrac float64
	// Restarts is the number of random k-means initializations per k.
	Restarts int
	// MaxIters bounds Lloyd iterations per run.
	MaxIters int
	// MaxSample bounds the number of intervals the k-means iterations
	// run over; larger inputs are weighted-sampled first and every
	// interval is assigned to the nearest resulting center afterwards
	// (SimPoint's sampled clustering for very long programs). Zero means
	// the default of 3000.
	MaxSample int
}

// DefaultConfig returns the paper's settings: up to 10 clusters,
// 15 projected dimensions, 90% BIC threshold.
func DefaultConfig(seed int64) Config {
	return Config{MaxK: 10, Dims: 15, Seed: seed, BICFrac: 0.9, Restarts: 3, MaxIters: 60, MaxSample: 3000}
}

// Selection is one chosen representative interval.
type Selection struct {
	// Interval is the index of the representative interval.
	Interval int
	// Ratio is the cluster's representation ratio: its share of the
	// total weight (dynamic instructions). Ratios sum to 1.
	Ratio float64
	// Cluster is the cluster index.
	Cluster int
}

// Result is the outcome of a clustering run.
type Result struct {
	// K is the chosen number of clusters.
	K int
	// Selections holds one representative per non-empty cluster.
	Selections []Selection
	// Assign maps each interval to its cluster.
	Assign []int
	// BIC holds the score for each candidate k (index k-1).
	BIC []float64
}

// Run clusters interval feature vectors. weights[i] is interval i's
// dynamic instruction count.
func Run(vecs []features.Vector, weights []float64, cfg Config) (*Result, error) {
	n := len(vecs)
	if n == 0 {
		return nil, fmt.Errorf("simpoint: no intervals")
	}
	if len(weights) != n {
		return nil, fmt.Errorf("simpoint: %d weights for %d intervals", len(weights), n)
	}
	if cfg.MaxK <= 0 || cfg.Dims <= 0 {
		return nil, fmt.Errorf("simpoint: invalid config (MaxK=%d, Dims=%d)", cfg.MaxK, cfg.Dims)
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 60
	}

	pts := Project(vecs, cfg.Dims)
	totalW := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("simpoint: negative weight")
		}
		totalW += w
	}
	if totalW == 0 {
		return nil, fmt.Errorf("simpoint: zero total weight")
	}

	maxK := cfg.MaxK
	if maxK > n {
		maxK = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Sampled clustering for very long programs: iterate k-means over a
	// weighted sample, then assign every interval to its nearest center.
	maxSample := cfg.MaxSample
	if maxSample <= 0 {
		maxSample = 3000
	}
	all := newPointSet(pts)
	kset, kweights := all, weights
	if n > maxSample {
		idx := sampleIndices(weights, maxSample, rng)
		kpts := make([][]float64, len(idx))
		kweights = make([]float64, len(idx))
		for i, j := range idx {
			kpts[i] = pts[j]
			kweights[i] = weights[j]
		}
		kset = newPointSet(kpts)
	}

	type candidate struct {
		assign  []int
		centers [][]float64
		bic     float64
	}
	cands := make([]candidate, maxK)
	for k := 1; k <= maxK; k++ {
		best := candidate{bic: math.Inf(-1)}
		for r := 0; r < cfg.Restarts; r++ {
			centers, _ := kmeans(kset, kweights, k, cfg.MaxIters, rng)
			near := all.nearest(centers)
			b := bic(all, weights, near, centers, totalW)
			if b > best.bic {
				best = candidate{assign: all.expand(near), centers: centers, bic: b}
			}
		}
		cands[k-1] = best
	}

	// Pick the smallest k whose BIC reaches BICFrac of the score range.
	minB, maxB := cands[0].bic, cands[0].bic
	for _, c := range cands {
		minB = math.Min(minB, c.bic)
		maxB = math.Max(maxB, c.bic)
	}
	threshold := minB + cfg.BICFrac*(maxB-minB)
	chosen := maxK - 1
	for i := range cands {
		if cands[i].bic >= threshold {
			chosen = i
			break
		}
	}

	c := cands[chosen]
	res := &Result{K: chosen + 1, Assign: c.assign}
	for i := range cands {
		res.BIC = append(res.BIC, cands[i].bic)
	}

	// Representative per cluster: the member nearest the centroid;
	// ratio = cluster weight share.
	k := chosen + 1
	clusterW := make([]float64, k)
	bestIdx := make([]int, k)
	bestDist := make([]float64, k)
	for i := range bestIdx {
		bestIdx[i] = -1
		bestDist[i] = math.Inf(1)
	}
	for i, a := range c.assign {
		clusterW[a] += weights[i]
		d := sqDist(pts[i], c.centers[a])
		if d < bestDist[a] {
			bestDist[a] = d
			bestIdx[a] = i
		}
	}
	for cl := 0; cl < k; cl++ {
		if bestIdx[cl] < 0 {
			continue // empty cluster
		}
		res.Selections = append(res.Selections, Selection{
			Interval: bestIdx[cl],
			Ratio:    clusterW[cl] / totalW,
			Cluster:  cl,
		})
	}
	if len(res.Selections) == 0 {
		return nil, fmt.Errorf("simpoint: clustering produced no selections")
	}
	return res, nil
}

// Project maps sparse feature vectors to dense cfg.Dims-dimensional
// points: each vector is L1-normalized, then each feature key contributes
// its value along a deterministic pseudo-random direction derived from
// the key. Keys hash to the same direction across vectors, so projection
// preserves relative geometry without materializing a projection matrix.
func Project(vecs []features.Vector, dims int) [][]float64 {
	pts := make([][]float64, len(vecs))
	var keys []uint64
	for i, v := range vecs {
		p := make([]float64, dims)
		// Accumulate in sorted key order so the floating-point sums —
		// and therefore every downstream clustering decision — are
		// bit-reproducible across processes (map iteration order is not).
		keys = keys[:0]
		for key := range v {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		norm := 0.0
		for _, key := range keys {
			norm += v[key]
		}
		if norm == 0 {
			pts[i] = p
			continue
		}
		for _, key := range keys {
			x := v[key] / norm
			for j := 0; j < dims; j++ {
				p[j] += x * direction(key, j)
			}
		}
		pts[i] = p
	}
	return pts
}

// direction returns the j-th component of feature key's projection
// direction, a deterministic uniform value in [-1, 1).
func direction(key uint64, j int) float64 {
	x := key + uint64(j)*0x9E3779B97F4A7C15
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53)*2 - 1
}

// sampleIndices draws m distinct interval indices with probability
// proportional to weight, via systematic sampling over the cumulative
// weight with a random phase.
func sampleIndices(weights []float64, m int, rng *rand.Rand) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	step := total / float64(m)
	next := rng.Float64() * step
	idx := make([]int, 0, m)
	acc := 0.0
	for i, w := range weights {
		acc += w
		for next < acc && len(idx) < m {
			idx = append(idx, i)
			next += step
		}
	}
	// Deduplicate (an index can absorb several steps when its weight is
	// large); k-means weights already account for mass, so keep one copy.
	out := idx[:0]
	prev := -1
	for _, i := range idx {
		if i != prev {
			out = append(out, i)
			prev = i
		}
	}
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// pointSet is a list of points with the bitwise-identical ones grouped.
// Work that depends only on a point's coordinates — its nearest center,
// its distance to a center — is done once per distinct point and shared
// by every member, while every floating-point sum still runs over all
// points in index order. Grouping is by bit pattern, never within a
// tolerance, so it cannot change a result; it pays because interval
// feature vectors repeat heavily (a phase's intervals often project to
// one point).
type pointSet struct {
	pts      [][]float64 // every point, in input order
	distinct [][]float64 // the distinct points, in order of first occurrence
	group    []int       // group[i] indexes pts[i] in distinct
}

func newPointSet(pts [][]float64) *pointSet {
	ps := &pointSet{pts: pts, group: make([]int, len(pts))}
	index := make(map[string]int)
	var key []byte
	for i, p := range pts {
		key = key[:0]
		for _, x := range p {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		u, ok := index[string(key)]
		if !ok {
			u = len(ps.distinct)
			index[string(key)] = u
			ps.distinct = append(ps.distinct, p)
		}
		ps.group[i] = u
	}
	return ps
}

// nearest returns each distinct point's nearest center.
func (ps *pointSet) nearest(centers [][]float64) []int {
	near := make([]int, len(ps.distinct))
	for u, p := range ps.distinct {
		near[u] = nearestCenter(p, centers)
	}
	return near
}

// expand maps a per-distinct-point assignment to every point.
func (ps *pointSet) expand(near []int) []int {
	assign := make([]int, len(ps.pts))
	for i, u := range ps.group {
		assign[i] = near[u]
	}
	return assign
}

// farthest returns the point farthest from its assigned center (near
// is per distinct point); ties go to the lowest index. Distinct points
// are visited in order of first occurrence, so the first one at the
// maximum is the one holding the lowest such index.
func (ps *pointSet) farthest(centers [][]float64, near []int) []float64 {
	far, farD := 0, -1.0
	for u, p := range ps.distinct {
		if d := sqDist(p, centers[near[u]]); d > farD {
			far, farD = u, d
		}
	}
	return ps.distinct[far]
}

// nearestCenter returns the index of the center closest to p; ties go
// to the lowest index.
func nearestCenter(p []float64, centers [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c := range centers {
		if d := sqDist(p, centers[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// kmeans runs weighted Lloyd's algorithm with k-means++ seeding and
// returns the final centers and the number of Lloyd iterations run.
//
// The centers after an iteration depend only on the centers before it
// (Lloyd draws no random numbers, and an empty-cluster reseed reads only
// the assignment those centers induce). So when an iteration that did
// not converge starts from centers bitwise equal to an earlier
// iteration's, the loop is periodic from there on and can never
// converge: the centers it would hold after maxIters iterations are
// read off the cycle instead of iterated to. This is common — an empty
// cluster reseeded onto a duplicate point empties again and again.
func kmeans(ps *pointSet, weights []float64, k, maxIters int, rng *rand.Rand) ([][]float64, int) {
	dims := len(ps.pts[0])
	centers := seedPlusPlus(ps, weights, k, rng)
	near := make([]int, len(ps.distinct))
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dims)
	}
	ws := make([]float64, k)
	// moved marks the clusters whose membership changed since their sums
	// were last computed; the others keep their sums, which depend only
	// on the members.
	moved := make([]bool, k)
	for c := range moved {
		moved[c] = true
	}
	// snaps holds the centers at the start of each iteration, flattened.
	snaps := make([]float64, 0, 4*k*dims)

	for iter := 0; iter < maxIters; iter++ {
		for _, c := range centers {
			snaps = append(snaps, c...)
		}
		changed := false
		for u, p := range ps.distinct {
			if best := nearestCenter(p, centers); best != near[u] {
				moved[near[u]], moved[best] = true, true
				near[u] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			return centers, iter + 1
		}
		if j := earlierSnapshot(snaps, iter, k*dims); j >= 0 {
			at := j + (maxIters-j)%(iter-j)
			for c := range centers {
				copy(centers[c], snaps[(at*k+c)*dims:])
			}
			return centers, iter + 1
		}
		// Recompute the weighted centroids of clusters that changed.
		for c := range sums {
			if moved[c] {
				clear(sums[c])
				ws[c] = 0
			}
		}
		for i, p := range ps.pts {
			c := near[ps.group[i]]
			if !moved[c] {
				continue
			}
			w := weights[i]
			ws[c] += w
			for j, x := range p {
				sums[c][j] += w * x
			}
		}
		for c := range centers {
			if ws[c] == 0 {
				// Empty cluster: reseed to the point farthest from its
				// center.
				copy(centers[c], ps.farthest(centers, near))
				continue
			}
			for j := range centers[c] {
				centers[c][j] = sums[c][j] / ws[c]
			}
		}
		clear(moved)
	}
	return centers, maxIters
}

// earlierSnapshot returns the index of an earlier snapshot bitwise equal
// to snapshot iter (each size floats long), or -1.
func earlierSnapshot(snaps []float64, iter, size int) int {
	cur := snaps[iter*size:]
next:
	for j := 0; j < iter; j++ {
		for x, v := range snaps[j*size : (j+1)*size] {
			if math.Float64bits(v) != math.Float64bits(cur[x]) {
				continue next
			}
		}
		return j
	}
	return -1
}

// seedPlusPlus performs weighted k-means++ initialization.
func seedPlusPlus(ps *pointSet, weights []float64, k int, rng *rand.Rand) [][]float64 {
	n := len(ps.pts)
	centers := make([][]float64, 0, k)
	// First center: weighted random point.
	centers = append(centers, clonePt(ps.pts[weightedPick(weights, rng)]))
	d2 := make([]float64, len(ps.distinct)) // per distinct point
	for len(centers) < k {
		last := centers[len(centers)-1]
		for u, p := range ps.distinct {
			d := sqDist(p, last)
			if len(centers) == 1 || d < d2[u] {
				d2[u] = d
			}
		}
		sum := 0.0
		for i, u := range ps.group {
			sum += d2[u] * weights[i]
		}
		if sum == 0 {
			// All points coincide with centers; duplicate any point.
			centers = append(centers, clonePt(ps.pts[rng.Intn(n)]))
			continue
		}
		r := rng.Float64() * sum
		acc := 0.0
		pick := n - 1
		for i, u := range ps.group {
			acc += d2[u] * weights[i]
			if acc >= r {
				pick = i
				break
			}
		}
		centers = append(centers, clonePt(ps.pts[pick]))
	}
	return centers
}

func weightedPick(weights []float64, rng *rand.Rand) int {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	r := rng.Float64() * sum
	acc := 0.0
	for i, w := range weights {
		acc += w
		if acc >= r {
			return i
		}
	}
	return len(weights) - 1
}

func clonePt(p []float64) []float64 {
	c := make([]float64, len(p))
	copy(c, p)
	return c
}

// bic scores a clustering with the Bayesian Information Criterion under
// a spherical Gaussian model (the X-means formulation), with interval
// weights acting as effective point counts. near is the assignment per
// distinct point.
func bic(ps *pointSet, weights []float64, near []int, centers [][]float64, totalW float64) float64 {
	k := len(centers)
	d := float64(len(ps.pts[0]))
	// Pooled within-cluster variance.
	dist := make([]float64, len(ps.distinct))
	for u, p := range ps.distinct {
		dist[u] = sqDist(p, centers[near[u]])
	}
	ss := 0.0
	for i, u := range ps.group {
		ss += weights[i] * dist[u]
	}
	denom := totalW - float64(k)
	if denom <= 0 {
		denom = 1e-12
	}
	sigma2 := ss / (d * denom)
	// Variance floor: projected coordinates live in [-1, 1]; treat
	// spread below ~0.1% of that scale as measurement noise so the
	// likelihood cannot reward subdividing point-like clusters forever
	// (the classic spherical-BIC over-splitting pathology).
	if sigma2 < 1e-6 {
		sigma2 = 1e-6
	}
	clusterW := make([]float64, k)
	for i, u := range ps.group {
		clusterW[near[u]] += weights[i]
	}
	loglik := 0.0
	for _, w := range clusterW {
		if w > 0 {
			loglik += w * math.Log(w/totalW)
		}
	}
	loglik += -totalW * d / 2 * math.Log(2*math.Pi*sigma2)
	loglik += -(totalW - float64(k)) * d / 2
	params := float64(k) * (d + 1)
	return loglik - params/2*math.Log(totalW)
}
