package histogram

import (
	"fmt"
	"math"
	"slices"
)

// Store is the flat bucket arena every maintained histogram in this
// repository keeps its state in. Instead of a []Bucket whose every
// element carries its own heap-allocated Subs slice (40-byte headers
// pointing at scattered 16-byte allocations), a Store holds three
// contiguous float64 arrays:
//
//	borders — interleaved bucket ranges: borders[2i] is bucket i's
//	          Left, borders[2i+1] its Right. Buckets are sorted by
//	          Left and non-overlapping; gaps between buckets are
//	          allowed (the DVO/DADO out-of-range borrow and the DC
//	          loading phase both create them).
//	subs    — the sub-bucket counters, K per bucket, row-major:
//	          bucket i's counters are subs[i*K : (i+1)*K].
//	counts  — the per-bucket running totals, maintained incrementally
//	          by every mutation, so Count(i) is O(1) instead of the
//	          O(K) re-sum the old Bucket.Count performed on every
//	          deviation probe.
//
// The layout is cache-friendly (lookups probe one dense borders array
// through a uniform grid index; the hot split-merge loops stream rows
// of adjacent memory) and allocation-free in steady state: once
// the arrays have grown to the histogram's bucket budget, inserting
// and removing buckets only shifts within existing capacity.
//
// A Store imposes no semantics beyond the layout: equal-width
// sub-bucket helpers (SubIndex, MassBelow, Mass) are provided for the
// DVO/DADO/DC families, while the equi-depth family keeps its own
// split-aware math over the same arrays.
type Store struct {
	k       int
	borders []float64
	subs    []float64
	counts  []float64

	// grid is a uniform acceleration index over the border range:
	// grid[c] is the first bucket whose right border maps to cell c or
	// later, so Find starts its scan there instead of binary-searching.
	// A random value stream defeats the branch predictor on a binary
	// search (one mispredict per level); the grid costs one multiply
	// and a short, usually zero-step scan. The index is rebuilt lazily:
	// any border mutation clears gridOK and the next Find rebuilds, an
	// O(n) pass. That pays off on the ingest paths, where borders move
	// only on the rare split/merge/insert steps between many Finds. The
	// feedback tuner, which moves a border on almost every record it
	// replays, locates buckets by binary search instead and never
	// triggers a rebuild.
	grid    []int32
	gridLo  float64
	gridInv float64
	gridOK  bool
}

// NewStore returns an empty store with k sub-bucket counters per
// bucket. k must be at least 1.
func NewStore(k int) *Store {
	if k < 1 {
		k = 1
	}
	return &Store{k: k}
}

// StoreOfBuckets builds a store from a validated bucket list. Every
// bucket must carry exactly k sub-bucket counters.
func StoreOfBuckets(buckets []Bucket, k int) (*Store, error) {
	if err := Validate(buckets); err != nil {
		return nil, err
	}
	s := &Store{k: k}
	s.Grow(len(buckets))
	for i := range buckets {
		b := &buckets[i]
		if len(b.Subs) != k {
			return nil, fmt.Errorf("%w: bucket %d has %d sub-buckets, store wants %d",
				ErrInvalid, i, len(b.Subs), k)
		}
		s.Append(b.Left, b.Right, b.Subs)
	}
	return s, nil
}

// Grow makes room for n more buckets, so the next n Appends do not
// allocate.
func (s *Store) Grow(n int) {
	s.borders = slices.Grow(s.borders, 2*n)
	s.subs = slices.Grow(s.subs, s.k*n)
	s.counts = slices.Grow(s.counts, n)
}

// Append adds the bucket [left, right) with the counters row (len(row)
// must be K) after the last bucket. The caller keeps the list sorted
// and non-overlapping.
func (s *Store) Append(left, right float64, row []float64) {
	s.borders = append(s.borders, left, right)
	s.subs = append(s.subs, row...)
	c := 0.0
	for _, v := range row {
		c += v
	}
	s.counts = append(s.counts, c)
	s.gridOK = false
}

// K returns the number of sub-bucket counters per bucket.
func (s *Store) K() int { return s.k }

// Len returns the number of buckets.
func (s *Store) Len() int { return len(s.counts) }

// Left returns bucket i's left border.
func (s *Store) Left(i int) float64 { return s.borders[2*i] }

// Right returns bucket i's right border.
func (s *Store) Right(i int) float64 { return s.borders[2*i+1] }

// Width returns bucket i's value-range width.
func (s *Store) Width(i int) float64 { return s.borders[2*i+1] - s.borders[2*i] }

// Count returns bucket i's total point count in O(1) off the
// incrementally maintained running total.
func (s *Store) Count(i int) float64 { return s.counts[i] }

// Contains reports whether x falls inside bucket i's [Left, Right).
func (s *Store) Contains(i int, x float64) bool {
	return x >= s.borders[2*i] && x < s.borders[2*i+1]
}

// Row returns bucket i's sub-bucket counters as a sub-slice of the
// arena. The caller must not grow it; writes must go through Add,
// Scale or SetRow so the running total stays maintained.
func (s *Store) Row(i int) []float64 { return s.subs[i*s.k : (i+1)*s.k] }

// SubIndex returns the index of the equal-width sub-bucket of bucket i
// containing x; x should lie inside the bucket. The K=1 and K=2 cases
// (every histogram family in this repository) avoid the division.
func (s *Store) SubIndex(i int, x float64) int {
	switch s.k {
	case 1:
		return 0
	case 2:
		if x >= (s.borders[2*i]+s.borders[2*i+1])/2 {
			return 1
		}
		return 0
	}
	j := int(float64(s.k) * (x - s.borders[2*i]) / s.Width(i))
	if j < 0 {
		j = 0
	}
	if j >= s.k {
		j = s.k - 1
	}
	return j
}

// Add adjusts sub-counter sub of bucket i by delta, maintaining the
// running total.
func (s *Store) Add(i, sub int, delta float64) {
	s.subs[i*s.k+sub] += delta
	s.counts[i] += delta
}

// AddAt adds delta to the sub-counter of bucket i covering x. The K=2
// hot path (the DVO/DADO default) is inlined division-free.
func (s *Store) AddAt(i int, x, delta float64) {
	if s.k == 2 {
		j := 2 * i
		if x >= (s.borders[2*i]+s.borders[2*i+1])/2 {
			j++
		}
		s.subs[j] += delta
		s.counts[i] += delta
		return
	}
	s.Add(i, s.SubIndex(i, x), delta)
}

// Scale multiplies every counter of bucket i by factor.
func (s *Store) Scale(i int, factor float64) {
	row := s.Row(i)
	for j := range row {
		row[j] *= factor
	}
	s.counts[i] *= factor
}

// SetRow overwrites bucket i's counters (len(vals) must be K) and
// recomputes its running total.
func (s *Store) SetRow(i int, vals []float64) {
	row := s.Row(i)
	c := 0.0
	for j := range row {
		row[j] = vals[j]
		c += vals[j]
	}
	s.counts[i] = c
}

// FillUniform spreads total evenly across bucket i's counters.
func (s *Store) FillUniform(i int, total float64) {
	row := s.Row(i)
	per := total / float64(s.k)
	for j := range row {
		row[j] = per
	}
	s.counts[i] = total
}

// SetBorders moves bucket i's range. The caller is responsible for
// keeping the list sorted and non-overlapping.
func (s *Store) SetBorders(i int, left, right float64) {
	s.borders[2*i] = left
	s.borders[2*i+1] = right
	s.gridOK = false
}

// Find returns the index of the bucket containing x, or -1 when x lies
// outside every bucket (before the first, after the last, or in a
// gap) — the flat-layout form of FindBucket. It answers from the grid
// index: one multiply locates the cell, grid[cell] gives the first
// candidate bucket, and a short forward scan (usually zero or one
// step) lands on the first bucket whose right border exceeds x. This
// sits on the per-value hot path of every insert.
func (s *Store) Find(x float64) int {
	n := s.Len()
	if n == 0 {
		return -1
	}
	if !s.gridOK {
		s.rebuildGrid()
	}
	i := int(s.grid[s.cellOf(x)])
	b := s.borders
	for i < n && b[2*i+1] <= x {
		i++
	}
	if i < n && x >= b[2*i] {
		return i
	}
	return -1
}

// cellOf maps a value to its grid cell, clamped to the index range.
// The clamp also absorbs NaN (whose int conversion is platform
// dependent but always lands outside the range after clamping the
// negative side first), so a NaN probe scans from bucket 0 and fails
// the containment check like any out-of-range value.
func (s *Store) cellOf(v float64) int {
	c := int((v - s.gridLo) * s.gridInv)
	if c < 0 {
		return 0
	}
	if c >= len(s.grid) {
		return len(s.grid) - 1
	}
	return c
}

// rebuildGrid recomputes the acceleration index from the current
// borders: grid[c] is the first bucket i with cellOf(Right(i)) ≥ c.
// Because cellOf is weakly monotone and the build uses the same cell
// function as the query, every bucket before grid[cellOf(x)] has a
// right border strictly below x — float rounding at cell edges can
// only make the start conservative (earlier), never skip the answer.
func (s *Store) rebuildGrid() {
	n := s.Len()
	cells := 4 * n
	if cells < 64 {
		cells = 64
	}
	if cells > 4096 {
		cells = 4096
	}
	lo, hi := s.borders[0], s.borders[2*n-1]
	w := hi - lo
	if !(w > 0) {
		w = 1 // unreachable for a valid store; keeps the index safe
	}
	s.gridLo = lo
	s.gridInv = float64(cells) / w
	if cap(s.grid) < cells {
		s.grid = make([]int32, cells)
	} else {
		s.grid = s.grid[:cells]
	}
	i := 0
	for c := range s.grid {
		for i < n && s.cellOf(s.borders[2*i+1]) < c {
			i++
		}
		s.grid[c] = int32(i)
	}
	s.gridOK = true
}

// MassBelow returns bucket i's mass in (-∞, x] under the equal-width
// sub-bucket uniform assumption. The full-bucket case re-sums the row
// instead of returning the maintained running total: split/merge
// reconstruction reads counter rows through this method, and the
// running total drifts from the fresh sum by ulps.
func (s *Store) MassBelow(i int, x float64) float64 {
	left, right := s.borders[2*i], s.borders[2*i+1]
	if x <= left {
		return 0
	}
	if x >= right {
		c := 0.0
		for _, v := range s.Row(i) {
			c += v
		}
		return c
	}
	subW := (right - left) / float64(s.k)
	row := s.Row(i)
	mass := 0.0
	for j, c := range row {
		lo := left + float64(j)*subW
		hi := lo + subW
		switch {
		case x >= hi:
			mass += c
		case x > lo:
			mass += c * (x - lo) / subW
		}
	}
	return mass
}

// Mass returns bucket i's mass inside [lo, hi).
func (s *Store) Mass(i int, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return s.MassBelow(i, hi) - s.MassBelow(i, lo)
}

// MassBelowAll returns the total mass of the whole store in (-∞, x] —
// the flat-layout form of the package-level MassBelow walk.
func (s *Store) MassBelowAll(x float64) float64 {
	mass := 0.0
	for i := 0; i < s.Len(); i++ {
		if s.borders[2*i+1] <= x {
			mass += s.counts[i]
			continue
		}
		if s.borders[2*i] >= x {
			break
		}
		mass += s.MassBelow(i, x)
	}
	return mass
}

// TotalMass sums every bucket's running total.
func (s *Store) TotalMass() float64 {
	t := 0.0
	for _, c := range s.counts {
		t += c
	}
	return t
}

// Insert makes room for a new zero-count bucket [left, right) at
// position pos, shifting later buckets right. In steady state (arrays
// already grown to the histogram's budget) it allocates nothing.
func (s *Store) Insert(pos int, left, right float64) {
	s.gridOK = false
	s.borders = append(s.borders, 0, 0)
	copy(s.borders[2*pos+2:], s.borders[2*pos:])
	s.borders[2*pos] = left
	s.borders[2*pos+1] = right

	k := s.k
	s.subs = append(s.subs, make([]float64, k)...)
	copy(s.subs[(pos+1)*k:], s.subs[pos*k:])
	row := s.subs[pos*k : (pos+1)*k]
	for j := range row {
		row[j] = 0
	}

	s.counts = append(s.counts, 0)
	copy(s.counts[pos+1:], s.counts[pos:])
	s.counts[pos] = 0
}

// Remove deletes the bucket at position pos, shifting later buckets
// left. It never allocates.
func (s *Store) Remove(pos int) {
	s.gridOK = false
	copy(s.borders[2*pos:], s.borders[2*pos+2:])
	s.borders = s.borders[:len(s.borders)-2]
	k := s.k
	copy(s.subs[pos*k:], s.subs[(pos+1)*k:])
	s.subs = s.subs[:len(s.subs)-k]
	copy(s.counts[pos:], s.counts[pos+1:])
	s.counts = s.counts[:len(s.counts)-1]
}

// Reset empties the store, keeping capacity.
func (s *Store) Reset() {
	s.borders = s.borders[:0]
	s.subs = s.subs[:0]
	s.counts = s.counts[:0]
	s.gridOK = false
}

// Clone deep-copies the store.
func (s *Store) Clone() *Store {
	c := &Store{
		k:       s.k,
		borders: append([]float64(nil), s.borders...),
		subs:    append([]float64(nil), s.subs...),
		counts:  append([]float64(nil), s.counts...),
	}
	return c
}

// Buckets materialises the store as a classic bucket list. The Subs
// slices of all returned buckets share one freshly allocated backing
// array (two allocations total), so the result is itself flat in
// memory; callers own it.
func (s *Store) Buckets() []Bucket {
	n := s.Len()
	out := make([]Bucket, n)
	flat := append([]float64(nil), s.subs...)
	for i := 0; i < n; i++ {
		out[i] = Bucket{
			Left:  s.borders[2*i],
			Right: s.borders[2*i+1],
			Subs:  flat[i*s.k : (i+1)*s.k : (i+1)*s.k],
		}
	}
	return out
}

// Validate checks the store's structural invariants directly on the
// flat arrays: sorted non-overlapping positive-width ranges, finite
// non-negative counters, and running totals consistent with the rows.
func (s *Store) Validate() error {
	n := s.Len()
	if len(s.borders) != 2*n || len(s.subs) != n*s.k {
		return fmt.Errorf("%w: inconsistent arena lengths", ErrInvalid)
	}
	for i := 0; i < n; i++ {
		left, right := s.borders[2*i], s.borders[2*i+1]
		if !(right > left) || math.IsInf(left, 0) || math.IsInf(right, 0) ||
			math.IsNaN(left) || math.IsNaN(right) {
			return fmt.Errorf("%w: bucket %d has bad range [%v,%v)", ErrInvalid, i, left, right)
		}
		if i > 0 && left < s.borders[2*i-1]-1e-9 {
			return fmt.Errorf("%w: bucket %d overlaps predecessor", ErrInvalid, i)
		}
		sum := 0.0
		for j, c := range s.Row(i) {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < -1e-6 {
				return fmt.Errorf("%w: bucket %d sub %d count %v", ErrInvalid, i, j, c)
			}
			sum += c
		}
		if math.Abs(sum-s.counts[i]) > 1e-6*(1+math.Abs(sum)) {
			return fmt.Errorf("%w: bucket %d running total %v drifted from row sum %v",
				ErrInvalid, i, s.counts[i], sum)
		}
	}
	return nil
}
