package main

import (
	"math/bits"
	"time"
)

// latHist is a log-linear latency histogram in the HdrHistogram family.
// Values below 2^(histSubBits+1) nanoseconds are recorded exactly; above
// that each power-of-two range splits into 2^histSubBits linear
// sub-buckets, so the worst-case quantization error is 2^-histSubBits
// (~1.6%) of the value. A fixed 4096-bucket array covers the whole
// int64 nanosecond range, so recording is a bounds check and an
// increment — no allocation, no comparison sort over millions of
// samples — and every run records every request even at tens of
// thousands per second. Every reported quantile comes from here.
type latHist struct {
	counts [histBuckets]uint64
	total  uint64
	max    time.Duration
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Highest index histIndex can produce for a 63-bit value is
	// (63-histSubBits-1)*histSub + 2*histSub - 1 < 64*histSub.
	histBuckets = 64 * histSub
)

// histIndex maps a non-negative nanosecond value to its bucket.
func histIndex(v int64) int {
	u := uint64(v)
	b := bits.Len64(u)
	if b <= histSubBits+1 {
		return int(u) // exact region: u < 2*histSub
	}
	shift := b - histSubBits - 1
	return shift*histSub + int(u>>shift)
}

// histValue is the upper edge of bucket i — quantiles read the
// pessimistic end of the bucket, never an optimistic one.
func histValue(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	shift := i/histSub - 1
	top := int64(i - shift*histSub)
	return (top+1)<<shift - 1
}

func (h *latHist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > h.max {
		h.max = d
	}
	h.counts[histIndex(int64(d))]++
	h.total++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the latency at quantile q in [0, 1], clamped to the
// exact observed maximum so p100 (and any bucket edge beyond it) never
// overstates the tail.
func (h *latHist) quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if v := time.Duration(histValue(i)); v < h.max {
				return v
			}
			return h.max
		}
	}
	return h.max
}
