package dynahist

import (
	"dynahist/internal/histogram"
	"dynahist/internal/union"
)

// Superpose builds the lossless union of the given histograms' bucket
// lists (paper §8): a border wherever any member has one, counts
// summed. Use Reduce to bring the result back to a memory budget, and
// NewStaticFromBuckets to query it.
//
// A *Sharded member without a merge budget contributes its shards'
// bucket lists directly, so the whole union is one superposition over
// every shard of every member and no member pays its own merge (nor
// counts one in Merges). Superposition is associative, so this is the
// union of the members' merged views up to float rounding. A member
// with a merge budget, whose view is a lossy reduction, and every
// other histogram contribute their Buckets.
func Superpose(members ...Histogram) ([]Bucket, error) {
	lists := make([][]histogram.Bucket, 0, len(members))
	for _, m := range members {
		if s, ok := m.(*Sharded); ok && s.e.MergeBudget() == 0 {
			shards := s.e.ShardBuckets()
			if len(shards) == 0 {
				// An empty engine's view has no buckets; keep it as one
				// empty list, so an all-empty union fails as it always has.
				shards = append(shards, nil)
			}
			lists = append(lists, shards...)
			continue
		}
		lists = append(lists, toInternal(m.Buckets()))
	}
	u, err := union.Superpose(lists...)
	if err != nil {
		return nil, err
	}
	return toPublic(u), nil
}

// Reduce merges a bucket list down to at most n buckets by repeatedly
// merging the most similar adjacent pair (the SSBM technique applied to
// an existing histogram).
func Reduce(buckets []Bucket, n int) ([]Bucket, error) {
	r, err := union.Reduce(toInternal(buckets), n)
	if err != nil {
		return nil, err
	}
	return toPublic(r), nil
}

// MarshalBuckets serializes a bucket list to the package's stable
// binary catalog format.
func MarshalBuckets(buckets []Bucket) ([]byte, error) {
	return histogram.MarshalBuckets(toInternal(buckets))
}

// UnmarshalBuckets parses a bucket list serialized by MarshalBuckets.
func UnmarshalBuckets(data []byte) ([]Bucket, error) {
	bs, err := histogram.UnmarshalBuckets(data)
	if err != nil {
		return nil, err
	}
	return toPublic(bs), nil
}
