package simpoint

// The reference clustering loop: Run, kmeans, assignAll, seedPlusPlus
// and bic as they were before k-means shared work across identical
// points and skipped Lloyd cycles, kept verbatim (renamed ref*) so the
// differential tests below can require the production code to match
// them bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gtpin/internal/features"
)

// refRun clusters interval feature vectors. weights[i] is interval i's
// dynamic instruction count.
func refRun(vecs []features.Vector, weights []float64, cfg Config) (*Result, error) {
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
	kpts, kweights := pts, weights
	if n > maxSample {
		idx := sampleIndices(weights, maxSample, rng)
		kpts = make([][]float64, len(idx))
		kweights = make([]float64, len(idx))
		for i, j := range idx {
			kpts[i] = pts[j]
			kweights[i] = weights[j]
		}
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
			_, centers := refKmeans(kpts, kweights, k, cfg.MaxIters, rng)
			assign := refAssignAll(pts, centers)
			b := refBic(pts, weights, assign, centers, totalW)
			if b > best.bic {
				best = candidate{assign: assign, centers: centers, bic: b}
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

// refAssignAll maps every point to its nearest center.
func refAssignAll(pts [][]float64, centers [][]float64) []int {
	assign := make([]int, len(pts))
	for i, p := range pts {
		best, bestD := 0, math.Inf(1)
		for c := range centers {
			if d := sqDist(p, centers[c]); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
	}
	return assign
}

// refKmeans runs weighted Lloyd's algorithm with k-means++ seeding.
func refKmeans(pts [][]float64, weights []float64, k, maxIters int, rng *rand.Rand) ([]int, [][]float64) {
	n := len(pts)
	dims := len(pts[0])
	centers := refSeedPlusPlus(pts, weights, k, rng)
	assign := make([]int, n)

	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := sqDist(p, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute weighted centroids.
		sums := make([][]float64, k)
		ws := make([]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dims)
		}
		for i, p := range pts {
			c := assign[i]
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
				far, farD := 0, -1.0
				for i, p := range pts {
					if d := sqDist(p, centers[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centers[c], pts[far])
				continue
			}
			for j := range centers[c] {
				centers[c][j] = sums[c][j] / ws[c]
			}
		}
	}
	// Final assignment against final centers.
	for i, p := range pts {
		best, bestD := 0, math.Inf(1)
		for c := range centers {
			if d := sqDist(p, centers[c]); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
	}
	return assign, centers
}

// refSeedPlusPlus performs weighted k-means++ initialization.
func refSeedPlusPlus(pts [][]float64, weights []float64, k int, rng *rand.Rand) [][]float64 {
	n := len(pts)
	centers := make([][]float64, 0, k)
	// First center: weighted random point.
	centers = append(centers, clonePt(pts[weightedPick(weights, rng)]))
	d2 := make([]float64, n)
	for len(centers) < k {
		sum := 0.0
		last := centers[len(centers)-1]
		for i, p := range pts {
			d := sqDist(p, last)
			if len(centers) == 1 || d < d2[i] {
				d2[i] = d
			}
			sum += d2[i] * weights[i]
		}
		if sum == 0 {
			// All points coincide with centers; duplicate any point.
			centers = append(centers, clonePt(pts[rng.Intn(n)]))
			continue
		}
		r := rng.Float64() * sum
		acc := 0.0
		pick := n - 1
		for i := range pts {
			acc += d2[i] * weights[i]
			if acc >= r {
				pick = i
				break
			}
		}
		centers = append(centers, clonePt(pts[pick]))
	}
	return centers
}

// refBic scores a clustering with the Bayesian Information Criterion under
// a spherical Gaussian model (the X-means formulation), with interval
// weights acting as effective point counts.
func refBic(pts [][]float64, weights []float64, assign []int, centers [][]float64, totalW float64) float64 {
	k := len(centers)
	d := float64(len(pts[0]))
	// Pooled within-cluster variance.
	ss := 0.0
	for i, p := range pts {
		ss += weights[i] * sqDist(p, centers[assign[i]])
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
	for i, a := range assign {
		clusterW[a] += weights[i]
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

// sameBits reports whether two float slices are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffKmeans runs one k-means call, the final assignment and the BIC
// through both loops from the same seed and describes the first
// difference, or returns "".
func diffKmeans(pts [][]float64, weights []float64, k, maxIters int, seed int64) string {
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}
	refRng := rand.New(rand.NewSource(seed))
	refAssign, refCenters := refKmeans(pts, weights, k, maxIters, refRng)
	rng := rand.New(rand.NewSource(seed))
	ps := newPointSet(pts)
	centers, _ := kmeans(ps, weights, k, maxIters, rng)
	if len(centers) != len(refCenters) {
		return fmt.Sprintf("%d centers, reference %d", len(centers), len(refCenters))
	}
	for c := range centers {
		if !sameBits(centers[c], refCenters[c]) {
			return fmt.Sprintf("center %d = %v, reference %v", c, centers[c], refCenters[c])
		}
	}
	if a, b := rng.Int63(), refRng.Int63(); a != b {
		return "random streams diverged"
	}
	near := ps.nearest(centers)
	if assign := ps.expand(near); !sameInts(assign, refAssign) || !sameInts(assign, refAssignAll(pts, refCenters)) {
		return fmt.Sprintf("assignment %v, reference %v", assign, refAssign)
	}
	b := bic(ps, weights, near, centers, totalW)
	if rb := refBic(pts, weights, refAssign, refCenters, totalW); math.Float64bits(b) != math.Float64bits(rb) {
		return fmt.Sprintf("BIC %v, reference %v", b, rb)
	}
	return ""
}

// diffRun runs Run and refRun and describes the first difference in
// their results (bitwise for every float), or returns "".
func diffRun(vecs []features.Vector, weights []float64, cfg Config) string {
	got, err := Run(vecs, weights, cfg)
	want, refErr := refRun(vecs, weights, cfg)
	if (err == nil) != (refErr == nil) {
		return fmt.Sprintf("error %v, reference %v", err, refErr)
	}
	if err != nil {
		return ""
	}
	if got.K != want.K {
		return fmt.Sprintf("K %d, reference %d", got.K, want.K)
	}
	if !sameBits(got.BIC, want.BIC) {
		return fmt.Sprintf("BIC %v, reference %v", got.BIC, want.BIC)
	}
	if !sameInts(got.Assign, want.Assign) {
		return fmt.Sprintf("assignment %v, reference %v", got.Assign, want.Assign)
	}
	if len(got.Selections) != len(want.Selections) {
		return fmt.Sprintf("selections %+v, reference %+v", got.Selections, want.Selections)
	}
	for i, s := range got.Selections {
		r := want.Selections[i]
		if s.Interval != r.Interval || s.Cluster != r.Cluster || math.Float64bits(s.Ratio) != math.Float64bits(r.Ratio) {
			return fmt.Sprintf("selections %+v, reference %+v", got.Selections, want.Selections)
		}
	}
	return ""
}

// paletteInput builds n intervals whose vectors come from a palette of
// distinct prototypes, so most points are exact duplicates.
func paletteInput(rng *rand.Rand, n, distinct int) ([]features.Vector, []float64) {
	vecs := make([]features.Vector, n)
	weights := make([]float64, n)
	for i := range vecs {
		p := rng.Intn(distinct)
		vecs[i] = features.Vector{uint64(p + 1): float64(1 + p%3), 100: float64(p % 4)}
		weights[i] = float64(1 + rng.Intn(50))
	}
	return vecs, weights
}

func TestKmeansMatchesReference(t *testing.T) {
	type tc struct {
		name     string
		n        int // intervals
		distinct int // palette size
		zeroW    bool
	}
	cases := []tc{
		{"heavy duplicates", 300, 4, false},
		{"k above distinct", 12, 2, false},
		{"all identical", 40, 1, false},
		{"zero weights", 60, 5, true},
		{"mostly distinct", 80, 80, false},
	}
	iters := []int{1, 2, 60}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for ci, c := range cases {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(int64(ci)*100 + seed))
			vecs, weights := paletteInput(rng, c.n, c.distinct)
			if c.zeroW {
				for i := range weights {
					if i%3 == 0 {
						weights[i] = 0
					}
				}
			}
			pts := Project(vecs, 15)
			for _, maxIters := range iters {
				for k := 1; k <= 10 && k <= c.n; k++ {
					if d := diffKmeans(pts, weights, k, maxIters, seed); d != "" {
						t.Fatalf("%s, seed %d, k %d, MaxIters %d: %s", c.name, seed, k, maxIters, d)
					}
				}
				cfg := DefaultConfig(seed)
				cfg.MaxIters = maxIters
				if d := diffRun(vecs, weights, cfg); d != "" {
					t.Fatalf("%s, seed %d, Run with MaxIters %d: %s", c.name, seed, maxIters, d)
				}
			}
		}
	}
}

func TestSampledRunMatchesReference(t *testing.T) {
	for _, maxIters := range []int{1, 2, 60} {
		rng := rand.New(rand.NewSource(int64(maxIters)))
		vecs, weights := paletteInput(rng, 400, 6)
		cfg := DefaultConfig(7)
		cfg.MaxIters = maxIters
		cfg.MaxSample = 90 // n > MaxSample: cluster a weighted sample
		if d := diffRun(vecs, weights, cfg); d != "" {
			t.Fatalf("MaxIters %d: %s", maxIters, d)
		}
	}
}

// FuzzKmeansMatchesReference decodes intervals from a palette of a few
// prototypes (duplicate-heavy by construction, weights including zero)
// and requires the production k-means and Run to match the reference
// loop bit for bit — on the full and the sampled path.
func FuzzKmeansMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 3}, uint8(8), uint8(60), int64(4))
	f.Add([]byte{5, 5, 5, 5, 9, 9}, uint8(3), uint8(1), int64(1))
	f.Add([]byte{1, 200, 2, 100, 3, 50, 1, 200, 2, 7}, uint8(10), uint8(2), int64(9))
	f.Add([]byte("duplicate heavy interval stream, repeated: duplicate heavy interval stream"), uint8(6), uint8(60), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, k, maxIters uint8, seed int64) {
		n := len(data) / 2
		if n == 0 || n > 200 {
			return
		}
		vecs := make([]features.Vector, n)
		weights := make([]float64, n)
		total := 0.0
		for i := range vecs {
			a, b := data[2*i], data[2*i+1]
			vecs[i] = features.Vector{uint64(a%8) + 1: float64(1 + a/8%4), 100: float64(b % 4)}
			weights[i] = float64(b / 4)
			total += weights[i]
		}
		if total == 0 {
			return
		}
		kk := 1 + int(k)%12
		if kk > n {
			kk = n
		}
		iters := 1 + int(maxIters)%60
		pts := Project(vecs, 15)
		if d := diffKmeans(pts, weights, kk, iters, seed); d != "" {
			t.Fatalf("k %d, MaxIters %d: %s", kk, iters, d)
		}
		cfg := DefaultConfig(seed)
		cfg.MaxK = kk
		cfg.MaxIters = iters
		if n > 4 && seed%2 == 0 {
			cfg.MaxSample = n / 2
		}
		if d := diffRun(vecs, weights, cfg); d != "" {
			t.Fatalf("Run (MaxSample %d): %s", cfg.MaxSample, d)
		}
	})
}

// TestReseedCycleStopsEarly: the TestEmptyClusterReseed shape (two
// distinct points, up to eight clusters) makes empty clusters reseed
// onto a duplicate point forever, so the reference loop runs to
// MaxIters. The cycle skip must stop every k-means call well short of
// it.
func TestReseedCycleStopsEarly(t *testing.T) {
	vecs := make([]features.Vector, 12)
	weights := make([]float64, 12)
	for i := range vecs {
		if i%2 == 0 {
			vecs[i] = features.Vector{1: 1}
		} else {
			vecs[i] = features.Vector{2: 1}
		}
		weights[i] = 1
	}
	cfg := DefaultConfig(4)
	ps := newPointSet(Project(vecs, cfg.Dims))
	if len(ps.distinct) != 2 {
		t.Fatalf("%d distinct points, want 2", len(ps.distinct))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	most := 0
	for k := 1; k <= 8; k++ {
		for r := 0; r < cfg.Restarts; r++ {
			_, iters := kmeans(ps, weights, k, cfg.MaxIters, rng)
			most = max(most, iters)
		}
	}
	if most > cfg.MaxIters/4 {
		t.Errorf("longest k-means call ran %d of %d iterations", most, cfg.MaxIters)
	}
}
