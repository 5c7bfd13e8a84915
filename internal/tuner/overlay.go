package tuner

import (
	"errors"

	"dynahist"
	"dynahist/internal/histogram"
)

// StoreOfView flattens a pinned view's buckets into the mutable Store
// the journal replays onto. It errors on an empty view and on a bucket
// list of mixed sub-bucket resolution, which one Store cannot hold.
func StoreOfView(v *dynahist.View) (*histogram.Store, error) {
	pb := v.Buckets()
	if len(pb) == 0 {
		return nil, errors.New("tuner: overlay needs a non-empty histogram")
	}
	ib := make([]histogram.Bucket, len(pb))
	for i, b := range pb {
		ib[i] = histogram.Bucket{Left: b.Left, Right: b.Right, Subs: b.Counters}
	}
	return histogram.StoreOfBuckets(ib, len(pb[0].Counters))
}

// ViewOfStore wraps a tuned overlay as a servable view.
func ViewOfStore(st *histogram.Store) (*dynahist.View, error) {
	tuned := st.Buckets()
	pb := make([]dynahist.Bucket, len(tuned))
	for i, b := range tuned {
		pb[i] = dynahist.Bucket{Left: b.Left, Right: b.Right, Counters: b.Subs}
	}
	h, err := dynahist.NewStaticFromBuckets(pb)
	if err != nil {
		return nil, err
	}
	return h.View()
}
