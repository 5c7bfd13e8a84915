package dynahist_test

import (
	"errors"
	"math/rand"
	"testing"

	"dynahist"
	"dynahist/internal/approx"
	"dynahist/internal/core"
)

// envelopeBlobs builds one valid snapshot envelope per kind for the
// decoder tests and the fuzzer's seed corpus.
func envelopeBlobs(t testing.TB) map[dynahist.Kind][]byte {
	fs, is := kindValues(600)
	out := map[dynahist.Kind][]byte{}
	for _, kind := range matrixKinds {
		opts := []dynahist.Option{dynahist.WithMemory(512)}
		switch {
		case kind == dynahist.KindAC:
			opts = append(opts, dynahist.WithSeed(3))
		case !kind.Maintained():
			opts = append(opts, dynahist.WithValues(is))
		}
		h, err := dynahist.New(kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if kind.Maintained() {
			if err := dynahist.InsertAll(h, fs); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := h.(dynahist.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out[kind] = blob
	}
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDC, dynahist.WithMemory(256))
	}, dynahist.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(fs); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out[dynahist.KindSharded] = blob
	return out
}

// TestRestoreRejectsTruncation slices every valid envelope short at
// several points; each prefix must fail cleanly with ErrBadSnapshot,
// never panic or succeed.
func TestRestoreRejectsTruncation(t *testing.T) {
	for kind, blob := range envelopeBlobs(t) {
		for _, n := range []int{0, 1, 4, 6, 7, len(blob) / 2, len(blob) - 1} {
			if n >= len(blob) {
				continue
			}
			if _, err := dynahist.Restore(blob[:n]); err == nil {
				t.Errorf("%v: Restore of %d/%d-byte prefix succeeded", kind, n, len(blob))
			}
		}
	}
}

// TestRestoreRejectsForeignKind rewrites each envelope's kind tag to
// every other kind; the payload no longer matches the tag, so Restore
// must reject (or, where the payload happens to parse under a sibling
// static kind, at minimum not panic and not misreport).
func TestRestoreRejectsForeignKind(t *testing.T) {
	blobs := envelopeBlobs(t)
	staticOf := func(k dynahist.Kind) bool { return !k.Maintained() && k != dynahist.KindSharded }
	for kind, blob := range blobs {
		for _, foreign := range []dynahist.Kind{
			dynahist.KindDADO, dynahist.KindDC, dynahist.KindAC,
			dynahist.KindSharded, dynahist.KindSSBM, dynahist.Kind(99),
		} {
			if foreign == kind {
				continue
			}
			// The static kinds share one payload format by design: a
			// retagged static envelope legitimately restores under the
			// foreign static tag.
			if staticOf(kind) && staticOf(foreign) {
				continue
			}
			mutated := append([]byte(nil), blob...)
			mutated[6] = byte(foreign)
			if h, err := dynahist.Restore(mutated); err == nil {
				t.Errorf("%v envelope retagged %v restored as %v", kind, foreign, dynahist.KindOf(h))
			}
		}
	}
}

// TestRestoreRejectsDeepNesting wraps a valid envelope in sharded
// framing far past the nesting cap; the decoder must reject it
// cleanly instead of recursing into a stack overflow.
func TestRestoreRejectsDeepNesting(t *testing.T) {
	h, err := dynahist.New(dynahist.KindDC, dynahist.WithMemory(256))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := h.(dynahist.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(inner []byte) []byte {
		out := []byte{0x44, 0x48, 0x45, 0x56, 1, 0, byte(dynahist.KindSharded)}
		out = append(out, 0)          // policy
		out = append(out, 0, 0, 0, 0) // merge budget
		out = append(out, 1, 0, 0, 0) // one shard
		n := uint32(len(inner))
		out = append(out, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		return append(out, inner...)
	}
	for range 64 {
		blob = wrap(blob)
	}
	if _, err := dynahist.Restore(blob); !errors.Is(err, dynahist.ErrBadSnapshot) {
		t.Fatalf("64-deep sharded nesting: %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreRejectsTrailingGarbage appends bytes to a sharded
// envelope, whose framed payload must notice.
func TestRestoreRejectsTrailingGarbage(t *testing.T) {
	blob := envelopeBlobs(t)[dynahist.KindSharded]
	if _, err := dynahist.Restore(append(append([]byte(nil), blob...), 0xEE)); !errors.Is(err, dynahist.ErrBadSnapshot) {
		t.Errorf("trailing garbage on sharded envelope: %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreRejectsLegacyBlobs feeds Restore the raw pre-envelope
// snapshot blobs of internal/core and internal/approx (magic "DYNS")
// and checks they are rejected: only the kind-tagged envelope
// restores.
func TestRestoreRejectsLegacyBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))

	dc, err := core.NewDCMemory(512)
	if err != nil {
		t.Fatal(err)
	}
	dvo, err := core.NewDVOMemory(512)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := approx.New(512, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	for range 2000 {
		v := float64(rng.Intn(1000))
		if err := dc.Insert(v); err != nil {
			t.Fatal(err)
		}
		if err := dvo.Insert(v); err != nil {
			t.Fatal(err)
		}
		if err := ac.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		blob func() ([]byte, error)
	}{
		{"dc", dc.Snapshot},
		{"dvo", dvo.Snapshot},
		{"ac", ac.Snapshot},
	} {
		raw, err := tc.blob()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dynahist.Restore(raw); !errors.Is(err, dynahist.ErrBadSnapshot) {
			t.Errorf("%s: Restore of raw DYNS blob = %v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

// FuzzRestore is the envelope decoder fuzzer: any input must either
// fail cleanly or produce a histogram whose own Snapshot round-trips
// back through Restore at the same kind.
func FuzzRestore(f *testing.F) {
	for _, blob := range envelopeBlobs(f) {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("DHEV"))
	f.Add([]byte{0x44, 0x48, 0x45, 0x56, 1, 0, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := dynahist.Restore(data)
		if err != nil {
			return
		}
		s, ok := h.(dynahist.Snapshotter)
		if !ok {
			t.Fatalf("restored %T does not snapshot", h)
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("re-snapshot of restored histogram: %v", err)
		}
		h2, err := dynahist.Restore(blob)
		if err != nil {
			t.Fatalf("re-restore: %v", err)
		}
		if dynahist.KindOf(h2) != dynahist.KindOf(h) {
			t.Fatalf("kind drift across round trip: %v → %v", dynahist.KindOf(h), dynahist.KindOf(h2))
		}
		if a, b := h.Total(), h2.Total(); a != b {
			t.Fatalf("total drift across round trip: %v → %v", a, b)
		}
	})
}
