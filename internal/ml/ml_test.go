package ml

import (
	"math"
	"testing"
	"testing/quick"

	"squatphi/internal/simrand"
)

// Predict thresholds PredictProba at 0.5.
func Predict(c Classifier, x []float64) int {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// synthDataset builds a separable-but-noisy binary dataset: positives have
// elevated counts in the first features, negatives in the last, with label
// noise to keep accuracy below 1.
func synthDataset(n, dims int, noise float64, seed uint64) ([][]float64, []int) {
	r := simrand.New(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		label := i % 2
		row := make([]float64, dims)
		for j := range row {
			base := 0.3
			if label == 1 && j < dims/3 || label == 0 && j >= 2*dims/3 {
				base = 2.5
			}
			v := base + r.NormFloat64()*0.8
			if v < 0 {
				v = 0
			}
			row[j] = math.Round(v)
		}
		if r.Float64() < noise {
			label = 1 - label
		}
		X[i] = row
		y[i] = label
	}
	return X, y
}

func TestNaiveBayesLearnsSeparableData(t *testing.T) {
	X, y := synthDataset(400, 12, 0, 1)
	var nb NaiveBayes
	nb.Fit(X, y)
	correct := 0
	for i := range X {
		if Predict(&nb, X[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.9 {
		t.Fatalf("NB training accuracy = %f", acc)
	}
}

func TestKNNLearnsSeparableData(t *testing.T) {
	X, y := synthDataset(300, 12, 0, 2)
	knn := KNN{K: 5}
	knn.Fit(X, y)
	correct := 0
	for i := range X {
		if Predict(&knn, X[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Fatalf("KNN training accuracy = %f", acc)
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	// XOR is not linearly separable; a depth>=2 tree must solve it.
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 1, 0, 0, 1, 1, 0}
	tr := Tree{MaxDepth: 4}
	tr.Fit(X, y)
	for i := range X {
		if Predict(&tr, X[i]) != y[i] {
			t.Fatalf("tree failed XOR at %v", X[i])
		}
	}
}

func TestForestLearnsNoisyData(t *testing.T) {
	X, y := synthDataset(400, 20, 0.05, 3)
	rf := RandomForest{NTrees: 30, Seed: 7}
	rf.Fit(X, y)
	correct := 0
	for i := range X {
		if Predict(&rf, X[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.9 {
		t.Fatalf("forest training accuracy = %f", acc)
	}
}

func TestForestDeterministicForSeed(t *testing.T) {
	X, y := synthDataset(200, 10, 0.05, 4)
	a := RandomForest{NTrees: 10, Seed: 42}
	b := RandomForest{NTrees: 10, Seed: 42}
	a.Fit(X, y)
	b.Fit(X, y)
	for i := 0; i < 20; i++ {
		if a.PredictProba(X[i]) != b.PredictProba(X[i]) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestPredictProbaBounds(t *testing.T) {
	X, y := synthDataset(200, 8, 0.1, 5)
	classifiers := []Classifier{&NaiveBayes{}, &KNN{K: 3}, &RandomForest{NTrees: 10, Seed: 1}, &Tree{}}
	for _, c := range classifiers {
		c.Fit(X, y)
	}
	if err := quick.Check(func(seed uint64) bool {
		r := simrand.New(seed)
		x := make([]float64, 8)
		for j := range x {
			x[j] = r.Float64() * 5
		}
		for _, c := range classifiers {
			p := c.PredictProba(x)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUntrainedClassifiersNeutral(t *testing.T) {
	x := []float64{1, 2, 3}
	for _, c := range []Classifier{&NaiveBayes{}, &KNN{}, &RandomForest{}, &Tree{}} {
		if p := c.PredictProba(x); p != 0.5 {
			t.Errorf("%T untrained proba = %f, want 0.5", c, p)
		}
	}
}

func TestConfusionRates(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN
	pairs := [][2]int{{1, 1}, {1, 1}, {1, 1}, {0, 1}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {1, 0}, {1, 0}}
	for _, p := range pairs {
		c.Add(p[0], p[1])
	}
	if c.TP != 3 || c.FP != 1 || c.TN != 4 || c.FN != 2 {
		t.Fatalf("confusion = %+v", c)
	}
	if got := c.FPR(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("FPR = %f", got)
	}
	if got := c.FNR(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("FNR = %f", got)
	}
	if got := c.Accuracy(); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("ACC = %f", got)
	}
}

func TestConfusionEmptyDenominators(t *testing.T) {
	var c Confusion
	if c.FPR() != 0 || c.FNR() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty confusion produced NaN-ish rates")
	}
}

func TestROCPerfectClassifier(t *testing.T) {
	truths := []int{1, 1, 0, 0}
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	curve := ROC(truths, scores)
	if auc := AUC(curve); math.Abs(auc-1.0) > 1e-9 {
		t.Fatalf("perfect AUC = %f", auc)
	}
}

func TestROCRandomClassifier(t *testing.T) {
	r := simrand.New(11)
	n := 4000
	truths := make([]int, n)
	scores := make([]float64, n)
	for i := range truths {
		truths[i] = r.Intn(2)
		scores[i] = r.Float64()
	}
	if auc := AUC(ROC(truths, scores)); math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("random AUC = %f, want ~0.5", auc)
	}
}

func TestROCInvertedClassifier(t *testing.T) {
	truths := []int{1, 1, 0, 0}
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	if auc := AUC(ROC(truths, scores)); math.Abs(auc) > 1e-9 {
		t.Fatalf("inverted AUC = %f, want 0", auc)
	}
}

func TestROCEndpointsAndMonotonic(t *testing.T) {
	X, y := synthDataset(200, 8, 0.2, 6)
	var nb NaiveBayes
	nb.Fit(X, y)
	scores := make([]float64, len(y))
	for i := range X {
		scores[i] = nb.PredictProba(X[i])
	}
	curve := ROC(y, scores)
	if curve[0].FPR != 0 || curve[0].TPR != 0 {
		t.Fatal("ROC does not start at origin")
	}
	last := curve[len(curve)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatal("ROC does not end at (1,1)")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatal("ROC not monotone")
		}
	}
}

func TestAUCTiedScores(t *testing.T) {
	// All scores equal: AUC must be exactly 0.5 (single diagonal segment).
	truths := []int{1, 0, 1, 0}
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	if auc := AUC(ROC(truths, scores)); math.Abs(auc-0.5) > 1e-9 {
		t.Fatalf("tied AUC = %f", auc)
	}
}

func TestCrossValidateStratification(t *testing.T) {
	X, y := synthDataset(300, 10, 0.05, 7)
	ev := CrossValidate(func() Classifier { return &RandomForest{NTrees: 15, Seed: 3} }, X, y, 10, 9)
	if ev.Confusion.Accuracy() < 0.85 {
		t.Fatalf("CV accuracy = %f", ev.Confusion.Accuracy())
	}
	if ev.AUC < 0.9 {
		t.Fatalf("CV AUC = %f", ev.AUC)
	}
	if len(ev.Scores) != len(y) {
		t.Fatal("pooled scores wrong length")
	}
}

func TestCrossValidateModelOrdering(t *testing.T) {
	// The paper's Table 7 ordering: RF >= KNN on AUC, both well above a
	// deliberately-mismatched NB (we verify RF is not the worst).
	X, y := synthDataset(300, 16, 0.1, 8)
	rf := CrossValidate(func() Classifier { return &RandomForest{NTrees: 20, Seed: 1} }, X, y, 5, 2)
	nb := CrossValidate(func() Classifier { return &NaiveBayes{} }, X, y, 5, 2)
	if rf.AUC < nb.AUC-0.05 {
		t.Fatalf("RF AUC %f worse than NB AUC %f", rf.AUC, nb.AUC)
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	X, y := synthDataset(150, 8, 0.1, 9)
	a := CrossValidate(func() Classifier { return &RandomForest{NTrees: 8, Seed: 5} }, X, y, 5, 4)
	b := CrossValidate(func() Classifier { return &RandomForest{NTrees: 8, Seed: 5} }, X, y, 5, 4)
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatal("CV not deterministic")
		}
	}
}

func BenchmarkForestFit(b *testing.B) {
	X, y := synthDataset(400, 50, 0.05, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := RandomForest{NTrees: 20, Seed: uint64(i)}
		rf.Fit(X, y)
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := synthDataset(400, 50, 0.05, 11)
	rf := RandomForest{NTrees: 50, Seed: 1}
	rf.Fit(X, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rf.PredictProba(X[i%len(X)])
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	X, y := synthDataset(1000, 50, 0.05, 12)
	knn := KNN{K: 5}
	knn.Fit(X, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = knn.PredictProba(X[i%len(X)])
	}
}
