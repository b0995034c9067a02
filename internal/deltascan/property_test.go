package deltascan

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// TestPropertyIncrementalEqualsFull is the quick-check-style contract test
// of the delta engine: for random sequences of record add/remove/modify
// operations over many epochs, the incremental scan of each epoch's store
// must equal a cold full scan of the same store, byte for byte, at worker
// counts 1, 4 and 32. Between the random epochs it forces the cases the
// incremental merge and the name-only skip must get right — a candidate
// appearing, that candidate disappearing, an epoch of nothing but
// re-points, an unchanged epoch — and, mid-sequence, swaps every engine
// for its own Save/Load image. After each scan the returned slice is
// scribbled over: the engine's retained output must not alias it.
func TestPropertyIncrementalEqualsFull(t *testing.T) {
	seeds := []uint64{1, 2026, 0xdeadbeef, 424242}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := simrand.New(seed)
			m := testMatcher()
			engines := map[int]*Engine{1: NewEngine(), 4: NewEngine(), 32: NewEngine()}
			model := seedModel(rng.Split("seed-model"), 200+rng.Intn(400))
			planted := "paypal-" + rng.Letters(5) + ".com"

			const epochs = 14
			for epoch := 0; epoch < epochs; epoch++ {
				ipOnly := false
				switch epoch % 5 {
				case 1:
					model[planted] = [4]byte{9, 9, 9, byte(epoch)}
				case 2:
					delete(model, planted)
				case 3:
					ipOnly = true
					for _, d := range sortedDomains(model) {
						if rng.Intn(3) == 0 {
							ip := model[d]
							ip[epoch%4]++
							model[d] = ip
						}
					}
				case 4: // unchanged
				default:
					mutate(model, rng.Split(fmt.Sprintf("mutate-%d", epoch)))
				}
				store := buildStore(model, rng.Split(fmt.Sprintf("build-%d", epoch)))
				want := fullScan(store, m)
				for workers, e := range engines {
					if epoch == epochs/2 {
						var spill bytes.Buffer
						if err := e.Save(&spill); err != nil {
							t.Fatal(err)
						}
						loaded, err := Load(&spill)
						if err != nil {
							t.Fatal(err)
						}
						e, engines[workers] = loaded, loaded
					}
					got := e.Scan(store, m, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("epoch %d workers %d: incremental %d candidates != full %d",
							epoch, workers, len(got), len(want))
					}
					st := e.LastStats()
					if st.FullScan != (epoch == 0) {
						t.Fatalf("epoch %d workers %d: FullScan = %t", epoch, workers, st.FullScan)
					}
					if (ipOnly || epoch%5 == 4) && st.RecordsWalked != 0 {
						t.Fatalf("epoch %d workers %d: walked %d records though no name changed",
							epoch, workers, st.RecordsWalked)
					}
					for i := range got {
						got[i] = squat.Candidate{Domain: "scribbled"}
					}
				}
			}
		})
	}
}

func sortedDomains(model map[string][4]byte) []string {
	domains := make([]string, 0, len(model))
	for d := range model {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	return domains
}

// mutate applies a random batch of add/remove/modify operations to the
// model, including occasional squat-shaped additions so the candidate set
// itself churns (not just the noise).
func mutate(model map[string][4]byte, rng *simrand.RNG) {
	domains := sortedDomains(model)

	removes := rng.Intn(10)
	for i := 0; i < removes && len(domains) > 0; i++ {
		j := rng.Intn(len(domains))
		delete(model, domains[j])
		domains = append(domains[:j], domains[j+1:]...)
	}
	modifies := rng.Intn(15)
	for i := 0; i < modifies && len(domains) > 0; i++ {
		d := domains[rng.Intn(len(domains))]
		if _, ok := model[d]; !ok {
			continue
		}
		model[d] = [4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	adds := rng.Intn(12)
	for i := 0; i < adds; i++ {
		var d string
		switch rng.Intn(4) {
		case 0: // squat-shaped: combo of a real brand
			d = "paypal-" + rng.Letters(4) + ".com"
		case 1: // wrongTLD
			d = "facebook." + simrand.Pick(rng, []string{"net", "org", "biz", "info"})
		default: // noise
			d = rng.Letters(9) + ".com"
		}
		model[d] = [4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
}

// TestPropertyMatcherSwapMidSequence interleaves matcher-config changes
// with snapshot churn: the engine must always answer with the current
// matcher's verdicts, never a cached predecessor's.
func TestPropertyMatcherSwapMidSequence(t *testing.T) {
	rng := simrand.New(77)
	matchers := []*squat.Matcher{
		testMatcher(),
		squat.NewMatcher([]squat.Brand{squat.NewBrand("paypal.com")}),
		squat.NewMatcher([]squat.Brand{squat.NewBrand("citibank.com"), squat.NewBrand("paypal.com")}),
	}
	e := NewEngine()
	model := seedModel(rng.Split("m"), 300)
	for epoch := 0; epoch < 9; epoch++ {
		mutate(model, rng.Split(fmt.Sprintf("mu-%d", epoch)))
		store := buildStore(model, rng.Split(fmt.Sprintf("b-%d", epoch)))
		m := matchers[epoch%len(matchers)]
		got := e.Scan(store, m, 1+epoch%4)
		if want := fullScan(store, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d (matcher %d): %d candidates != full %d", epoch, epoch%len(matchers), len(got), len(want))
		}
	}
}
