package ml

import (
	"sort"

	"squatphi/internal/simrand"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add tallies one (truth, predicted) pair.
func (c *Confusion) Add(truth, pred int) {
	switch {
	case truth == 1 && pred == 1:
		c.TP++
	case truth == 0 && pred == 1:
		c.FP++
	case truth == 0 && pred == 0:
		c.TN++
	default:
		c.FN++
	}
}

// FPR returns the false positive rate FP / (FP + TN).
func (c Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// FNR returns the false negative rate FN / (FN + TP).
func (c Confusion) FNR() float64 {
	if c.FN+c.TP == 0 {
		return 0
	}
	return float64(c.FN) / float64(c.FN+c.TP)
}

// Accuracy returns (TP + TN) / total.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// ROCPoint is one operating point of a ROC curve.
type ROCPoint struct {
	FPR, TPR  float64
	Threshold float64
}

// ROC computes the ROC curve for scores against truths, sorted by
// descending threshold, beginning at (0,0) and ending at (1,1).
func ROC(truths []int, scores []float64) []ROCPoint {
	type sc struct {
		s float64
		y int
	}
	pairs := make([]sc, len(scores))
	pos, neg := 0, 0
	for i := range scores {
		pairs[i] = sc{scores[i], truths[i]}
		if truths[i] == 1 {
			pos++
		} else {
			neg++
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].s > pairs[j].s })

	curve := []ROCPoint{{0, 0, 1.01}}
	tp, fp := 0, 0
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].s == pairs[i].s {
			if pairs[j].y == 1 {
				tp++
			} else {
				fp++
			}
			j++
		}
		pt := ROCPoint{Threshold: pairs[i].s}
		if neg > 0 {
			pt.FPR = float64(fp) / float64(neg)
		}
		if pos > 0 {
			pt.TPR = float64(tp) / float64(pos)
		}
		curve = append(curve, pt)
		i = j
	}
	last := curve[len(curve)-1]
	if last.FPR != 1 || last.TPR != 1 {
		curve = append(curve, ROCPoint{1, 1, -0.01})
	}
	return curve
}

// AUC integrates a ROC curve with the trapezoid rule.
func AUC(curve []ROCPoint) float64 {
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area
}

// Evaluation summarises a cross-validated classifier run (one Table 7 row).
type Evaluation struct {
	Confusion Confusion
	AUC       float64
	ROC       []ROCPoint
	// Scores and Truths are the pooled out-of-fold predictions.
	Scores []float64
	Truths []int
}

// CrossValidate runs stratified k-fold cross validation, training a fresh
// classifier from factory for each fold, and pools the out-of-fold
// predictions into a single evaluation — the paper's 10-fold protocol.
func CrossValidate(factory func() Classifier, X [][]float64, y []int, folds int, seed uint64) Evaluation {
	if folds < 2 {
		folds = 2
	}
	rng := simrand.New(seed).Split("cv")

	// Stratify: shuffle positives and negatives separately, then deal them
	// round-robin so every fold has both classes.
	var posIdx, negIdx []int
	for i, label := range y {
		if label == 1 {
			posIdx = append(posIdx, i)
		} else {
			negIdx = append(negIdx, i)
		}
	}
	rng.Shuffle(len(posIdx), func(i, j int) { posIdx[i], posIdx[j] = posIdx[j], posIdx[i] })
	rng.Shuffle(len(negIdx), func(i, j int) { negIdx[i], negIdx[j] = negIdx[j], negIdx[i] })
	fold := make([]int, len(y))
	for i, idx := range posIdx {
		fold[idx] = i % folds
	}
	for i, idx := range negIdx {
		fold[idx] = i % folds
	}

	scores := make([]float64, len(y))
	for f := 0; f < folds; f++ {
		var trX [][]float64
		var trY []int
		for i := range y {
			if fold[i] != f {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		clf := factory()
		clf.Fit(trX, trY)
		for i := range y {
			if fold[i] == f {
				scores[i] = clf.PredictProba(X[i])
			}
		}
	}

	var ev Evaluation
	ev.Scores = scores
	ev.Truths = y
	for i := range y {
		pred := 0
		if scores[i] >= 0.5 {
			pred = 1
		}
		ev.Confusion.Add(y[i], pred)
	}
	ev.ROC = ROC(y, scores)
	ev.AUC = AUC(ev.ROC)
	return ev
}
