package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// workload is one traffic mix against one generated list. Its rates and
// p99 limit are absolute and also written into BENCHMARK.json: a limit
// relative to the run's own lowest stage would move with the code under
// test.
type workload struct {
	name    string
	weights [numKinds]int
	light   float64   // req/s
	heavy   float64   // req/s
	ladder  []float64 // req/s above heavy, walked upward until a rung misses the SLO
	// rung is how long each ladder rung runs; 0 means a thirtieth of
	// the run.
	rung time.Duration
	p99  time.Duration
	// p99Window is the number of requests per p99 window (see
	// windowedPct); 0 pools the whole stage.
	p99Window int
	boots     int // set-ups per run; setup_s is their median
	// serveArgs are passed to rws-serve after -addr and -list.
	serveArgs []string
	// swapEvery is the churn cadence during the load stages; 0 for the
	// point mixes. Every workload times endSwaps swaps after the load:
	// the point mixes signal the server after each rename, the churn mix
	// leaves it to -poll.
	swapEvery time.Duration
	endSwaps  int
	// inputs generates the universe of sets and the versions to serve
	// and swap in; version 0 is served at boot.
	inputs func(rng *rand.Rand, versions int) (*core.List, [][]int32, error)
	// versions is how many list versions a run needs.
	versions int
}

// pointMix is the sameset=4,set=3,partition=2,batch=1 request mix.
var pointMix = [numKinds]int{kSameSet: 4, kSet: 3, kPartition: 2, kBatch: 1}

// asOfEpoch is the as-of time of version 0; version k is k hours later.
var asOfEpoch = time.Date(2024, 3, 26, 0, 0, 0, 0, time.UTC)

var workloads = []*workload{
	{
		name:    "embedded-point",
		weights: pointMix,
		light:   1000, heavy: 6000,
		ladder:    ladderRange(8000, 2000, 37),
		p99:       10 * time.Millisecond,
		p99Window: 1000,
		boots:     15,
		endSwaps:  29,
		inputs:    embeddedInputs,
		versions:  30,
	},
	{
		name:    "amplified-1e5-point",
		weights: pointMix,
		light:   1000, heavy: 4000,
		ladder: ladderRange(15000, 1500, 31),
		// A GC cycle marks the large live heap for about half a second on
		// the server's one P; rungs of a second and a half keep it to a
		// third of a rung's p99 windows wherever it lands.
		rung:      1500 * time.Millisecond,
		p99:       10 * time.Millisecond,
		p99Window: 1000,
		boots:     3,
		endSwaps:  1,
		inputs: func(rng *rand.Rand, versions int) (*core.List, [][]int32, error) {
			return amplifiedInputs(rng, 100_000, 1000, versions)
		},
		versions: 2,
	},
	// swap-churn is not in BENCHMARK.json: on a shared two-CPU VM its
	// figures spread wider than any bound worth gating on. Run it by name.
	{
		name: "swap-churn",
		weights: [numKinds]int{kSameSet: 4, kSet: 3, kPartition: 2, kBatch: 1,
			kAsOf: 2, kDiff: 1},
		light: 500, heavy: 3000,
		ladder: ladderRange(2000, 2000, 16),
		// Each stage holds one swap, a second after it starts; reads
		// stall while a swap runs, and that stall must count in every
		// rung alike.
		rung:      2 * time.Second,
		p99:       time.Second,
		boots:     5,
		serveArgs: []string{"-poll", "100ms", "-retain", "8"},
		swapEvery: 4 * time.Second,
		endSwaps:  5,
		inputs: func(rng *rand.Rand, versions int) (*core.List, [][]int32, error) {
			return amplifiedInputs(rng, 10_000, 50, versions)
		},
		// One swap per stage of the longest run, plus the swaps after
		// the load.
		versions: 20,
	},
}

// ladderRange is n rates from first in steps of step.
func ladderRange(first, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = first + float64(i)*step
	}
	return out
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// embeddedInputs serves the paper's 41-set 26 March 2024 snapshot;
// version k > 0 drops one seeded set from it, a different one each time.
func embeddedInputs(rng *rand.Rand, versions int) (*core.List, [][]int32, error) {
	list, err := dataset.List()
	if err != nil {
		return nil, nil, err
	}
	n := list.NumSets()
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	out := [][]int32{all}
	drop := rng.Perm(n)
	for k := 1; k < versions; k++ {
		var ids []int32
		for _, id := range all {
			if int(id) != drop[k%n] {
				ids = append(ids, id)
			}
		}
		out = append(out, ids)
	}
	return list, out, nil
}

// amplifiedInputs generates size sets to serve plus a reserve; each later
// version removes edit random sets and adds edit sets not served, about
// as the real list moves from one month to the next.
func amplifiedInputs(rng *rand.Rand, size, edit, versions int) (*core.List, [][]int32, error) {
	reserve := max(2*edit, edit*versions/2)
	list, err := amplify.Generate(amplify.Config{Sets: size + reserve, Seed: rng.Int63()})
	if err != nil {
		return nil, nil, err
	}
	cur := make([]int32, size)
	for i := range cur {
		cur[i] = int32(i)
	}
	spare := make([]int32, reserve)
	for i := range spare {
		spare[i] = int32(size + i)
	}
	out := [][]int32{cur}
	for k := 1; k < versions; k++ {
		next := append([]int32(nil), cur...)
		rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
		rng.Shuffle(len(spare), func(i, j int) { spare[i], spare[j] = spare[j], spare[i] })
		removed := append([]int32(nil), next[:edit]...)
		next = append(next[edit:], spare[:edit]...)
		spare = append(spare[edit:], removed...)
		out = append(out, next)
		cur = next
	}
	return list, out, nil
}

// inputs is everything a run serves and checks.
type inputs struct {
	u        *universe
	chk      *checker
	listPath string // the file rws-serve is started on
}

// buildInputs generates the workload's sets and versions from seed and
// writes every version to its own file under dir; version 0 is also the
// served list.
func buildInputs(w *workload, seed int64, dir string) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	list, versions, err := w.inputs(rng, w.versions)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	u, err := newUniverse(list.Sets())
	if err != nil {
		return nil, err
	}
	chk := newChecker(u)
	for k, ids := range versions {
		v, err := u.newVersion(k, ids, asOfEpoch.Add(time.Duration(k)*time.Hour))
		if err != nil {
			return nil, err
		}
		if err := u.write(v, filepath.Join(dir, fmt.Sprintf("v%03d.json", k))); err != nil {
			return nil, fmt.Errorf("write version %d: %w", k, err)
		}
		chk.add(v)
	}
	in := &inputs{u: u, chk: chk, listPath: filepath.Join(dir, "list.json")}
	// The served file starts as a copy of version 0, so version 0's own
	// file stays available to the traced run.
	if err := u.write(&version{ids: versions[0], asOf: asOfEpoch}, in.listPath); err != nil {
		return nil, err
	}
	return in, nil
}
