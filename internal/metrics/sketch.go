package metrics

import "math/bits"

// DefaultSketchEps is the relative quantile error the streaming
// collector guarantees when the caller does not choose one: 0.5%.
const DefaultSketchEps = 0.005

// QuantileSketch is a deterministic bounded-memory quantile estimator
// over non-negative int64 samples (FCT nanoseconds). It buckets values
// logarithmically with m mantissa bits per octave — the HDR-histogram
// scheme — so every estimate is within a configurable relative error ε
// of the exact nearest-rank value:
//
//   - values below 2^(m+1) land in exact unit buckets;
//   - larger values share a bucket with at most 2^-(m+1) ≤ ε relative
//     rounding, and the bucket's midpoint is reported.
//
// Unlike sampling sketches (GK, P²) the bucket layout is a pure
// function of ε, so Add order never matters and equal inputs give
// bit-equal state — the properties the simulator's determinism
// contract needs. Memory is
// fixed at allocation: (65-m)·2^m buckets (≈58 KB at the default ε).
//
// The zero value is not usable; call NewQuantileSketch.
type QuantileSketch struct {
	mbits  uint
	eps    float64
	count  int64
	min    int64
	max    int64
	used   int // buckets with a non-zero count
	counts []int64
}

// NewQuantileSketch returns an empty sketch with relative quantile
// error at most eps. eps <= 0 selects DefaultSketchEps; eps is clamped
// to [2^-21, 0.5].
func NewQuantileSketch(eps float64) *QuantileSketch {
	if eps <= 0 {
		eps = DefaultSketchEps
	}
	// Smallest m with 2^-(m+1) <= eps.
	m := uint(1)
	for m < 20 && 1/float64(int64(1)<<(m+1)) > eps {
		m++
	}
	return &QuantileSketch{
		mbits:  m,
		eps:    eps,
		min:    -1,
		counts: make([]int64, (65-int(m))<<m),
	}
}

// Count returns how many samples have been added.
func (s *QuantileSketch) Count() int64 { return s.count }

// Min and Max return the exact extremes observed (0 when empty).
func (s *QuantileSketch) Min() int64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum observed (0 when empty).
func (s *QuantileSketch) Max() int64 { return s.max }

// BucketsUsed returns how many buckets hold at least one sample.
func (s *QuantileSketch) BucketsUsed() int { return s.used }

// indexOf maps a sample to its bucket: shift*2^m + (v >> shift) where
// shift = max(0, bitlen(v)-m-1). The mapping is monotone and
// contiguous, and exact (unit buckets) for v < 2^(m+1).
func (s *QuantileSketch) indexOf(v int64) int {
	shift := bits.Len64(uint64(v)) - int(s.mbits) - 1
	if shift <= 0 {
		return int(v)
	}
	return shift<<s.mbits + int(uint64(v)>>shift)
}

// valueOf returns the representative (midpoint) of bucket idx.
func (s *QuantileSketch) valueOf(idx int) int64 {
	q := idx >> s.mbits
	if q <= 1 { // exact region: idx < 2^(m+1)
		return int64(idx)
	}
	shift := uint(q - 1)
	sub := int64(idx - int(shift)<<s.mbits)
	return sub<<shift + int64(1)<<(shift-1)
}

// Add records one sample. Negative samples are clamped to zero. The
// hot path is allocation-free.
func (s *QuantileSketch) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	idx := s.indexOf(v)
	if s.counts[idx] == 0 {
		s.used++
	}
	s.counts[idx]++
}

// valueAtRank returns the representative value of the sample at the
// given 1-based rank (callers clamp rank into [1, count]), clamped to
// the exact [min, max] envelope.
func (s *QuantileSketch) valueAtRank(rank int64) int64 {
	var cum int64
	for idx, n := range s.counts {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			v := s.valueOf(idx)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// Quantile estimates the p-th percentile (nearest-rank, matching
// Percentile's semantics) within the sketch's relative error. It
// returns 0 on an empty sketch.
func (s *QuantileSketch) Quantile(p float64) int64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := int64(p / 100 * float64(s.count))
	if float64(rank) < p/100*float64(s.count) { // ceil
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	return s.valueAtRank(rank)
}
