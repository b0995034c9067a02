package deltascan

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// TestPropertyIncrementalEqualsFull is the quick-check-style contract test
// of the delta engine: for random sequences of record add/remove/modify
// operations over many epochs, the incremental scan of each epoch's store
// must equal a cold full scan of the same store, byte for byte. Two kinds
// of lineage run side by side: stores rebuilt from the model every epoch
// (every rescanned shard re-matched in full) at worker counts 1, 4 and 32,
// and stores churned in place by Add (tail matching) — one built by Add,
// one by GenerateSnapshot with 4 workers, whose sequence numbers arrive out
// of order. In place, a store never drops a name, and every epoch matches
// exactly the names it added. Between the random epochs it forces the
// cases the merge and the skip must get right — a candidate appearing,
// that candidate disappearing, an epoch of nothing but re-points, an
// unchanged epoch — and, mid-sequence, swaps every engine for its own
// Save/Load image. A Scan result is read-only: an epoch of re-points only
// or of nothing must hand back the previous epoch's slice itself, and every
// result must still equal the clone taken when it was returned once the
// sequence ends, so the engine never writes into a slice it returned.
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
			inPlace := []*lineage{
				{name: "in place", store: dnsx.NewStore(), e: NewEngine()},
				{name: "generated", e: NewEngine(), store: dnsx.GenerateSnapshot(dnsx.SnapshotSpec{
					Planted: []string{"paypa1.com", "faceb00k.com"}, NoiseRecords: 300, Workers: 4, Seed: seed,
				})},
			}
			model := seedModel(rng.Split("seed-model"), 200+rng.Intn(400))
			planted := "paypal-" + rng.Letters(5) + ".com"

			// returned keeps every result beside its clone; prev is each
			// engine's last result.
			type result struct{ got, clone []squat.Candidate }
			var returned []result
			prev := map[*Engine][]squat.Candidate{}
			defer func() {
				for i, r := range returned {
					if !reflect.DeepEqual(r.got, r.clone) {
						t.Fatalf("result %d was written into after it was returned", i)
					}
				}
			}()

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
				reload := func(e *Engine) *Engine {
					if epoch != epochs/2 {
						return e
					}
					var spill bytes.Buffer
					if err := e.Save(&spill); err != nil {
						t.Fatal(err)
					}
					loaded, err := Load(&spill)
					if err != nil {
						t.Fatal(err)
					}
					return loaded
				}
				unchanged := ipOnly || epoch%5 == 4
				check := func(name string, e *Engine, store *dnsx.Store, workers, added int) {
					t.Helper()
					got := e.Scan(store, m, workers)
					returned = append(returned, result{got, slices.Clone(got)})
					if last := prev[e]; unchanged && (len(got) != len(last) || len(got) > 0 && &got[0] != &last[0]) {
						t.Fatalf("epoch %d %s workers %d: an epoch that changes no candidate returned a new slice", epoch, name, workers)
					}
					prev[e] = got
					if want := fullScan(store, m); !reflect.DeepEqual(got, want) {
						t.Fatalf("epoch %d %s workers %d: incremental %d candidates != full %d",
							epoch, name, workers, len(got), len(want))
					}
					st := e.LastStats()
					if st.FullScan != (epoch == 0) {
						t.Fatalf("epoch %d %s workers %d: FullScan = %t", epoch, name, workers, st.FullScan)
					}
					if added >= 0 && st.RecordsWalked != added {
						t.Fatalf("epoch %d %s workers %d: matched %d records, want the %d names added",
							epoch, name, workers, st.RecordsWalked, added)
					}
				}

				store := buildStore(model, rng.Split(fmt.Sprintf("build-%d", epoch)))
				for workers, e := range engines {
					e = reload(e)
					engines[workers] = e
					added := -1 // a rebuilt store re-matches its changed shards in full
					if unchanged {
						added = 0
					}
					check("rebuilt", e, store, workers, added)
				}
				for _, l := range inPlace {
					added := l.apply(model)
					if epoch == 0 || epoch == epochs/2 {
						added = -1 // a full scan; the first scan after Load re-matches its changed shards in full
					}
					l.e = reload(l.e)
					check(l.name, l.e, l.store, []int{1, 4, 32}[epoch%3], added)
				}
			}
		})
	}
}

// lineage is one store churned in place and the engine that follows it.
type lineage struct {
	name  string
	store *dnsx.Store
	e     *Engine
}

// apply brings the store up to the model by Add — new names and re-points;
// names the model dropped stay, as they do in a store — and returns the
// number of names it added.
func (l *lineage) apply(model map[string][4]byte) (added int) {
	for _, d := range sortedDomains(model) {
		ip, ok := l.store.Lookup(d)
		if !ok {
			added++
		}
		if !ok || ip != model[d] {
			l.store.Add(d, model[d])
		}
	}
	return added
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
