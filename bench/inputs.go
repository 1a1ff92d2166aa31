package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// inputs is everything a run feeds the engine, made from the workload
// constants and the seed alone. The sequences are cyclic: the
// generator walks them with a mask, so their lengths are powers of two
// long enough that no run wraps onto the same view in the same order
// within one queue's lifetime.
type inputs struct {
	names   []string // view names, index == popularity rank
	derived [][]string
	general []string

	keys   []uint32 // feed: view index per update
	delays []uint32 // feed: network delay per update in ns; nil if the workload has none
	txns   []txnIn  // transaction templates
	counts []uint16 // transactions due in each 1 ms burst

	digest string
}

// txnIn is one transaction as generated: which views it reads, how
// long it computes, what it is worth and how much slack its deadline
// leaves.
type txnIn struct {
	reads   [4]uint32
	sets    [2]uint32
	nsets   int
	compute int64 // ns
	slack   int64 // ns; deadline = due + compute + slack
	value   float64
}

const (
	keySeqLen   = 1 << 20
	txnSeqLen   = 1 << 16
	countSeqLen = 1 << 12
)

func makeInputs(w *workload, seed uint64) *inputs {
	// One stream per (seed, workload) so two workloads never share a
	// key sequence.
	var tag uint64
	for _, c := range []byte(w.name) {
		tag = tag*131 + uint64(c)
	}
	rng := rand.New(rand.NewPCG(seed, tag))
	in := &inputs{}

	for i := 0; i < w.views; i++ {
		in.names = append(in.names, fmt.Sprintf("v%05d", i))
	}
	for d := 0; d < w.derived; d++ {
		deps := make([]string, w.derivedDeps)
		for i, v := range rng.Perm(w.views)[:w.derivedDeps] {
			deps[i] = in.names[v]
		}
		in.derived = append(in.derived, deps)
	}
	for i := 0; i < w.generalKeys; i++ {
		in.general = append(in.general, fmt.Sprintf("g%05d", i))
	}

	zipf := zipfCDF(w.views)
	pick := func(skewed bool) uint32 {
		if skewed {
			return uint32(sort.SearchFloat64s(zipf, rng.Float64()))
		}
		return uint32(rng.IntN(w.views))
	}

	in.keys = make([]uint32, keySeqLen)
	for i := range in.keys {
		in.keys[i] = pick(w.zipfFeed)
	}

	if w.delayMean > 0 {
		in.delays = make([]uint32, keySeqLen)
		for i := range in.delays {
			// Capped at 4 s so it fits; MaxAge is reached long before.
			in.delays[i] = uint32(math.Min(rng.ExpFloat64()*float64(w.delayMean), 4e9))
		}
	}

	in.txns = make([]txnIn, txnSeqLen)
	for i := range in.txns {
		t := &in.txns[i]
		for r := 0; r < w.reads; r++ {
			t.reads[r] = pick(w.zipfReads)
		}
		if w.setOneIn > 0 && rng.IntN(w.setOneIn) == 0 {
			t.nsets = w.sets
			for s := 0; s < w.sets; s++ {
				t.sets[s] = uint32(rng.IntN(w.generalKeys))
			}
		}
		if w.computeMean > 0 {
			c := rng.ExpFloat64() * float64(w.computeMean)
			t.compute = int64(math.Min(c, float64(w.computeCap)))
		}
		t.slack = int64(w.slackMin) + int64(rng.Float64()*float64(w.slackMax-w.slackMin))
		t.value = valueMin + rng.Float64()*(valueMax-valueMin)
	}

	in.counts = make([]uint16, countSeqLen)
	perTick := float64(w.txnRate) / 1000
	for i := range in.counts {
		if w.poisson {
			in.counts[i] = poisson(rng, perTick)
		} else {
			// Evenly spread, also when fewer than one is due per tick.
			in.counts[i] = uint16(math.Floor(float64(i+1)*perTick) - math.Floor(float64(i)*perTick))
		}
	}

	in.digest = in.hash()
	return in
}

// zipfCDF returns the cumulative distribution of Zipf(s=1.0) over n
// ranks (math/rand's Zipf needs s > 1).
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// poisson draws by Knuth's product method; mean is a few tens at most.
func poisson(rng *rand.Rand, mean float64) uint16 {
	limit := math.Exp(-mean)
	k, p := 0, rng.Float64()
	for p > limit {
		k++
		p *= rng.Float64()
	}
	return uint16(k)
}

// hash fingerprints the generated input: same seed, same digest.
func (in *inputs) hash() string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err) // fixed-size values into a hash cannot fail
		}
	}
	put(in.keys)
	put(in.delays)
	put(in.counts)
	for i := range in.txns {
		t := &in.txns[i]
		put(t.reads)
		put(t.sets)
		put(int64(t.nsets))
		put(t.compute)
		put(t.slack)
		put(t.value)
	}
	for _, deps := range in.derived {
		for _, d := range deps {
			h.Write([]byte(d))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
