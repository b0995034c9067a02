// Package ml implements the machine-learning substrate from scratch: the
// three classifier families the paper evaluates (Naive Bayes, k-nearest
// neighbours, and random forests of CART trees), plus k-fold cross
// validation and the ROC/AUC metrics used in Table 7 and Figure 10.
//
// The paper chose these models "primarily for efficiency considerations
// since the classifier needs to quickly process millions of webpages"
// (§5.2); random forest wins with AUC 0.97. Binary classification only:
// label 1 is phishing (positive), 0 is benign.
package ml

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"squatphi/internal/simrand"
)

// Classifier is a trainable binary classifier producing P(y=1 | x).
type Classifier interface {
	// Fit trains on feature vectors X with labels y in {0, 1}. All rows
	// must have equal length. Fit may retain the slices; callers must not
	// mutate them afterwards.
	Fit(X [][]float64, y []int)
	// PredictProba returns the estimated probability that x is positive.
	PredictProba(x []float64) float64
}

// ---------------------------------------------------------------------------
// Multinomial Naive Bayes
// ---------------------------------------------------------------------------

// NaiveBayes is a multinomial Naive Bayes classifier with Laplace
// smoothing, suited to the non-negative keyword-count embedding.
type NaiveBayes struct {
	// Alpha is the Laplace smoothing constant (default 1).
	Alpha float64

	logPrior  [2]float64
	logProb   [2][]float64
	nFeatures int
}

// Fit estimates class priors and per-feature log probabilities.
func (nb *NaiveBayes) Fit(X [][]float64, y []int) {
	alpha := nb.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	if len(X) == 0 {
		return
	}
	nb.nFeatures = len(X[0])
	var classCount [2]float64
	var featSum [2][]float64
	for c := 0; c < 2; c++ {
		featSum[c] = make([]float64, nb.nFeatures)
	}
	for i, row := range X {
		c := y[i]
		classCount[c]++
		for j, v := range row {
			if v > 0 {
				featSum[c][j] += v
			}
		}
	}
	total := classCount[0] + classCount[1]
	for c := 0; c < 2; c++ {
		nb.logPrior[c] = math.Log((classCount[c] + 1) / (total + 2))
		sum := 0.0
		for _, v := range featSum[c] {
			sum += v
		}
		nb.logProb[c] = make([]float64, nb.nFeatures)
		denom := sum + alpha*float64(nb.nFeatures)
		for j, v := range featSum[c] {
			nb.logProb[c][j] = math.Log((v + alpha) / denom)
		}
	}
}

// PredictProba returns P(y=1 | x) via Bayes' rule in log space.
func (nb *NaiveBayes) PredictProba(x []float64) float64 {
	if nb.nFeatures == 0 {
		return 0.5
	}
	var logLik [2]float64
	for c := 0; c < 2; c++ {
		logLik[c] = nb.logPrior[c]
		for j, v := range x {
			if v > 0 && j < nb.nFeatures {
				logLik[c] += v * nb.logProb[c][j]
			}
		}
	}
	// Softmax of the two log likelihoods.
	m := math.Max(logLik[0], logLik[1])
	p0 := math.Exp(logLik[0] - m)
	p1 := math.Exp(logLik[1] - m)
	return p1 / (p0 + p1)
}

// ---------------------------------------------------------------------------
// K-nearest neighbours
// ---------------------------------------------------------------------------

// KNN is a brute-force k-nearest-neighbours classifier over Euclidean
// distance. Probability is the positive fraction among the k neighbours.
type KNN struct {
	// K is the neighbourhood size (default 5).
	K int

	x [][]float64
	y []int
}

// Fit stores the training set.
func (k *KNN) Fit(X [][]float64, y []int) { k.x, k.y = X, y }

// PredictProba scans the training set for the k nearest points.
func (k *KNN) PredictProba(x []float64) float64 {
	kk := k.K
	if kk <= 0 {
		kk = 5
	}
	if len(k.x) == 0 {
		return 0.5
	}
	if kk > len(k.x) {
		kk = len(k.x)
	}
	type nd struct {
		d float64
		y int
	}
	// Keep the k best in a simple bounded insertion list; k is small.
	best := make([]nd, 0, kk)
	for i, row := range k.x {
		d := sqDist(row, x)
		if len(best) < kk {
			best = append(best, nd{d, k.y[i]})
			sort.Slice(best, func(a, b int) bool { return best[a].d < best[b].d })
			continue
		}
		if d < best[kk-1].d {
			best[kk-1] = nd{d, k.y[i]}
			for j := kk - 1; j > 0 && best[j].d < best[j-1].d; j-- {
				best[j], best[j-1] = best[j-1], best[j]
			}
		}
	}
	pos := 0
	for _, b := range best {
		pos += b.y
	}
	return float64(pos) / float64(len(best))
}

func sqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ---------------------------------------------------------------------------
// CART decision tree and random forest
// ---------------------------------------------------------------------------

// treeNode is one node of a CART tree stored in a flat slice.
type treeNode struct {
	feature     int     // split feature; -1 for leaves
	threshold   float64 // go left if x[feature] <= threshold
	left, right int32
	prob        float64 // P(y=1) among training samples reaching the node
	samples     int32   // training samples reaching the node
}

// Tree is a single CART decision tree trained with the Gini criterion.
type Tree struct {
	// MaxDepth bounds the tree (default 12).
	MaxDepth int
	// MinSamplesSplit is the minimum node size to attempt a split (default 2).
	MinSamplesSplit int
	// MaxFeatures is the number of features examined per split; <= 0 means
	// all. Random forests set it to sqrt(total features).
	MaxFeatures int
	// Seed drives feature subsampling.
	Seed uint64

	nodes []treeNode
}

// Fit grows the tree on (X, y).
func (t *Tree) Fit(X [][]float64, y []int) {
	t.nodes = t.nodes[:0]
	if len(X) == 0 {
		return
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	rng := simrand.New(t.Seed).Split("tree")
	t.grow(X, y, idx, 0, rng)
}

func (t *Tree) maxDepth() int {
	if t.MaxDepth <= 0 {
		return 12
	}
	return t.MaxDepth
}

func (t *Tree) minSplit() int {
	if t.MinSamplesSplit < 2 {
		return 2
	}
	return t.MinSamplesSplit
}

// grow builds the subtree for idx and returns its node index.
func (t *Tree) grow(X [][]float64, y []int, idx []int, depth int, rng *simrand.RNG) int32 {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	prob := float64(pos) / float64(len(idx))

	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: -1, prob: prob, samples: int32(len(idx))})
	if depth >= t.maxDepth() || len(idx) < t.minSplit() || pos == 0 || pos == len(idx) {
		return node
	}

	feature, threshold, ok := t.bestSplit(X, y, idx, rng)
	if !ok {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node
	}
	l := t.grow(X, y, left, depth+1, rng)
	r := t.grow(X, y, right, depth+1, rng)
	t.nodes[node].feature = feature
	t.nodes[node].threshold = threshold
	t.nodes[node].left = l
	t.nodes[node].right = r
	return node
}

// bestSplit finds the Gini-optimal (feature, threshold) over a feature
// subsample, using midpoints between sorted distinct values as candidates.
func (t *Tree) bestSplit(X [][]float64, y []int, idx []int, rng *simrand.RNG) (int, float64, bool) {
	nf := len(X[0])
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < nf {
		rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:t.MaxFeatures]
	}

	bestGini := math.Inf(1)
	bestFeature, bestThreshold := -1, 0.0
	vals := make([]float64, 0, len(idx))
	for _, f := range features {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		prev := vals[0]
		for _, v := range vals[1:] {
			if v == prev {
				continue
			}
			thr := (prev + v) / 2
			prev = v
			g := giniOf(X, y, idx, f, thr)
			if g < bestGini {
				bestGini, bestFeature, bestThreshold = g, f, thr
			}
		}
	}
	return bestFeature, bestThreshold, bestFeature >= 0
}

// giniOf computes the weighted Gini impurity of splitting idx on (f, thr).
func giniOf(X [][]float64, y []int, idx []int, f int, thr float64) float64 {
	var nL, pL, nR, pR float64
	for _, i := range idx {
		if X[i][f] <= thr {
			nL++
			pL += float64(y[i])
		} else {
			nR++
			pR += float64(y[i])
		}
	}
	gini := func(n, p float64) float64 {
		if n == 0 {
			return 0
		}
		q := p / n
		return 2 * q * (1 - q)
	}
	total := nL + nR
	return nL/total*gini(nL, pL) + nR/total*gini(nR, pR)
}

// PredictProba walks the tree.
func (t *Tree) PredictProba(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0.5
	}
	n := int32(0)
	for {
		node := t.nodes[n]
		if node.feature < 0 {
			return node.prob
		}
		if node.feature < len(x) && x[node.feature] <= node.threshold {
			n = node.left
		} else {
			n = node.right
		}
	}
}

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling (sqrt of the feature count), the paper's best classifier.
type RandomForest struct {
	// NTrees is the ensemble size (default 50).
	NTrees int
	// MaxDepth bounds each tree (default 12).
	MaxDepth int
	// Seed drives bootstrap sampling and feature subsampling.
	Seed uint64
	// Workers is the number of goroutines Fit trains trees on (<= 0 means
	// GOMAXPROCS). Every tree derives its own RNG from (Seed, tree index),
	// so the fitted ensemble — and therefore every prediction — is
	// identical for any Workers value.
	Workers int

	trees []Tree
}

// Fit trains the ensemble on bootstrap resamples of (X, y), fanning the
// independent trees out over the worker pool.
func (rf *RandomForest) Fit(X [][]float64, y []int) {
	n := rf.NTrees
	if n <= 0 {
		n = 50
	}
	rf.trees = make([]Tree, n)
	if len(X) == 0 {
		return
	}
	maxFeat := int(math.Sqrt(float64(len(X[0]))))
	if maxFeat < 1 {
		maxFeat = 1
	}
	// rng is only ever read (SplitN derives a fresh generator without
	// advancing the parent), so workers can share it without locking.
	rng := simrand.New(rf.Seed).Split("forest")
	fitTree := func(ti int) {
		tr := rng.SplitN(uint64(ti))
		bx := make([][]float64, len(X))
		by := make([]int, len(X))
		for i := range bx {
			j := tr.Intn(len(X))
			bx[i], by[i] = X[j], y[j]
		}
		rf.trees[ti] = Tree{MaxDepth: rf.MaxDepth, MaxFeatures: maxFeat, Seed: tr.Uint64()}
		rf.trees[ti].Fit(bx, by)
	}

	workers := rf.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for ti := range rf.trees {
			fitTree(ti)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ti := int(next.Add(1)) - 1
				if ti >= n {
					return
				}
				fitTree(ti)
			}
		}()
	}
	wg.Wait()
}

// PredictProba averages the trees' leaf probabilities.
func (rf *RandomForest) PredictProba(x []float64) float64 {
	if len(rf.trees) == 0 {
		return 0.5
	}
	sum := 0.0
	for i := range rf.trees {
		sum += rf.trees[i].PredictProba(x)
	}
	return sum / float64(len(rf.trees))
}

// VoteDetail explains one forest prediction: the averaged probability
// plus the per-tree vote split behind it. Verdict provenance surfaces it
// so an analyst can tell a unanimous flag from a 6-of-10 coin toss.
type VoteDetail struct {
	// Proba is the ensemble probability (identical to PredictProba).
	Proba float64
	// Trees is the ensemble size; VotesFor the number of trees whose leaf
	// probability reaches the 0.5 decision threshold.
	Trees    int
	VotesFor int
	// Margin is the normalised vote margin (VotesFor*2 - Trees)/Trees in
	// [-1, 1]: +1 unanimous positive, -1 unanimous negative.
	Margin float64
}

// PredictVotes walks every tree once and returns both the ensemble
// probability and the vote split. It is PredictProba plus bookkeeping —
// same traversals, same float summation order, so Proba is bit-identical
// to PredictProba(x).
func (rf *RandomForest) PredictVotes(x []float64) VoteDetail {
	if len(rf.trees) == 0 {
		return VoteDetail{Proba: 0.5}
	}
	d := VoteDetail{Trees: len(rf.trees)}
	sum := 0.0
	for i := range rf.trees {
		p := rf.trees[i].PredictProba(x)
		sum += p
		if p >= 0.5 {
			d.VotesFor++
		}
	}
	d.Proba = sum / float64(len(rf.trees))
	d.Margin = float64(2*d.VotesFor-d.Trees) / float64(d.Trees)
	return d
}
