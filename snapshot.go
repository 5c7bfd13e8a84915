package dynahist

// Snapshotter is implemented by every histogram in this package whose
// complete state can be serialized: the maintained families (DC,
// DADO/DVO, AC), the static constructions, and the Sharded engine.
// Every Snapshot produces a self-describing kind-tagged envelope that
// the single Restore door rebuilds; the serving layer's checkpoint
// loop feeds on it.
type Snapshotter interface {
	Snapshot() ([]byte, error)
}

// Snapshot serializes the histogram's complete maintainable state —
// configuration, counters, singular flags and phase — wrapped in the
// package's kind-tagged envelope, so a database can checkpoint its
// statistics and keep maintaining them after Restore.
// (MarshalBuckets, by contrast, captures only the approximation.)
func (h *DC) Snapshot() ([]byte, error) {
	payload, err := h.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(KindDC, payload), nil
}

// Snapshot serializes the histogram's complete maintainable state in
// the kind-tagged envelope; the tag distinguishes DADO from DVO by the
// deviation measure in use. See (*DC).Snapshot.
func (h *Dynamic) Snapshot() ([]byte, error) {
	payload, err := h.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(KindOf(h), payload), nil
}

// Snapshot serializes the AC histogram's complete maintainable state:
// its backing reservoir sample, live count and maintenance parameters,
// in the kind-tagged envelope. The in-memory bucket list is
// recomputable from the sample and is not stored; the reservoir's RNG
// stream is re-seeded on restore, so the restored AC is a
// statistically equivalent continuation rather than a bit-identical
// replay (Algorithm R's acceptance probability depends only on the
// capacity and seen count, which round-trip exactly).
func (h *AC) Snapshot() ([]byte, error) {
	payload, err := h.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(KindAC, payload), nil
}

// Snapshot serializes the static histogram's bucket list in the
// kind-tagged envelope; the tag records which construction built it,
// so Restore returns a Static that KindOf still attributes correctly.
func (h *Static) Snapshot() ([]byte, error) {
	payload, err := MarshalBuckets(h.Buckets())
	if err != nil {
		return nil, err
	}
	kind := h.kind
	if !kind.Valid() {
		kind = KindStatic
	}
	return encodeEnvelope(kind, payload), nil
}

// Snapshot serializes the whole sharded engine — its striping policy,
// merge budget, and every shard's own envelope — as one kind-tagged
// blob that Restore rebuilds into a *Sharded. Shards are locked one at
// a time, so under concurrent writes the checkpoint is fuzzy: each
// shard internally consistent, the set not necessarily one global
// instant — the right trade-off for statistics that tolerate being a
// few inserts askew.
func (s *Sharded) Snapshot() ([]byte, error) {
	blobs, err := s.e.SnapshotShards()
	if err != nil {
		return nil, err
	}
	payload := encodeShardedPayload(ShardPolicy(s.e.Policy()), s.e.MergeBudget(), blobs)
	return encodeEnvelope(KindSharded, payload), nil
}
