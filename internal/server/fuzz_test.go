package server

import (
	"os"
	"testing"

	"dynahist/internal/wire"
)

// fuzzSeedEntry builds a real catalog blob for the seed corpus.
func fuzzSeedEntry(f *testing.F, family string) []byte {
	f.Helper()
	reg := NewRegistry()
	info, err := reg.Create(wire.CreateRequest{Name: "seed-" + family, Family: family, MemBytes: 1024, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	h, err := reg.Histogram(info.Name)
	if err != nil {
		f.Fatal(err)
	}
	vs := make([]float64, 500)
	for i := range vs {
		vs[i] = float64(i % 97)
	}
	if err := h.InsertBatch(vs); err != nil {
		f.Fatal(err)
	}
	e, err := reg.get(info.Name)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := EncodeEntry(e, 12345, 678)
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

// FuzzDecodeEntry is the registry-restore fuzzer: corrupted or
// truncated catalog files must be rejected with an error, never a
// panic, and any accepted entry must be a live histogram that keeps
// maintaining — the same contract internal/core's snapshot fuzzers
// enforce one layer down.
func FuzzDecodeEntry(f *testing.F) {
	for _, fam := range []string{FamilyDADO, FamilyDVO, FamilyDC, FamilyAC} {
		blob := fuzzSeedEntry(f, fam)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
	}
	f.Add([]byte{})
	f.Add([]byte("HCAT"))
	for _, c := range catalogCorpus {
		data, err := os.ReadFile(c.path())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if !ValidName(e.name) {
			t.Fatalf("accepted entry with invalid name %q", e.name)
		}
		if e.h == nil {
			t.Fatal("accepted entry with nil histogram")
		}
		if err := e.h.Insert(42); err != nil {
			t.Fatalf("restored histogram rejects inserts: %v", err)
		}
		if c := e.h.CDF(1e12); c < 0 || c > 1+1e-9 {
			t.Fatalf("restored CDF out of range: %v", c)
		}
	})
}
