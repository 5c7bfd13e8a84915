package tuner

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"dynahist"
	"dynahist/internal/histogram"
)

// StoreOfView flattens a pinned view's buckets into the mutable Store
// the journal replays onto. It errors on an empty view and on a bucket
// list of mixed sub-bucket resolution, which one Store cannot hold. A
// pinned view's list is valid by construction, so the rows go straight
// into the store without a second validation pass.
func StoreOfView(v *dynahist.View) (*histogram.Store, error) {
	pb := v.Buckets()
	if len(pb) == 0 {
		return nil, errors.New("tuner: overlay needs a non-empty histogram")
	}
	k := len(pb[0].Counters)
	st := histogram.NewStore(k)
	st.Grow(len(pb))
	for i, b := range pb {
		if len(b.Counters) != k {
			return nil, fmt.Errorf("%w: bucket %d has %d sub-buckets, store wants %d",
				histogram.ErrInvalid, i, len(b.Counters), k)
		}
		st.Append(b.Left, b.Right, b.Counters)
	}
	return st, nil
}

// ViewOfStore wraps a tuned overlay as a servable view. The bucket
// list handed to NewStaticFromBuckets is scratch that reads the store's
// rows in place: the histogram takes its own copy, and its view pins
// that copy. The scratch header arrays are pooled across calls.
func ViewOfStore(st *histogram.Store) (*dynahist.View, error) {
	p, _ := bucketScratch.Get().(*[]dynahist.Bucket)
	if p == nil {
		p = new([]dynahist.Bucket)
	}
	pb := slices.Grow((*p)[:0], st.Len())[:st.Len()]
	for i := range pb {
		pb[i] = dynahist.Bucket{Left: st.Left(i), Right: st.Right(i), Counters: st.Row(i)}
	}
	h, err := dynahist.NewStaticFromBuckets(pb)
	clear(pb) // drop the references to the store's rows
	*p = pb
	bucketScratch.Put(p)
	if err != nil {
		return nil, err
	}
	return h.View()
}

// bucketScratch pools ViewOfStore's scratch bucket lists.
var bucketScratch sync.Pool
