package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dynahist/internal/tuner"
	"dynahist/internal/wire"
)

var updateCatalogCorpus = flag.Bool("update-catalog-corpus", false,
	"rewrite testdata/catalog_v5 from the current EncodeEntry")

// corpusEntry describes one frozen catalog file: the configuration,
// covered WAL LSN, site watermark and feedback journal it was written
// with.
type corpusEntry struct {
	family   string
	memBytes int
	shards   int
	seed     int64
	walLSN   uint64
	siteWM   uint64
	feedback []tuner.Record
}

// catalogCorpus is the frozen v5 corpus: one file per maintained
// family, each with a non-empty journal and non-zero stamps.
var catalogCorpus = []corpusEntry{
	{family: FamilyDADO, memBytes: 1024, shards: 2, walLSN: 101, siteWM: 9001,
		feedback: []tuner.Record{{Lo: 10, Hi: 40, Estimated: 90, Observed: 120}, {Lo: 100, Hi: 150, Estimated: 140, Observed: 100}}},
	{family: FamilyDVO, memBytes: 1024, shards: 2, walLSN: 202, siteWM: 9002,
		feedback: []tuner.Record{{Lo: 0, Hi: 20, Estimated: 60, Observed: 75}}},
	{family: FamilyDC, memBytes: 512, shards: 3, walLSN: 303, siteWM: 9003,
		feedback: []tuner.Record{{Lo: 50, Hi: 60, Estimated: 30, Observed: 18}, {Lo: 180, Hi: 210, Estimated: 85, Observed: 90}}},
	{family: FamilyAC, memBytes: 1024, shards: 2, seed: 7, walLSN: 404, siteWM: 9004,
		feedback: []tuner.Record{{Lo: 5, Hi: 95, Estimated: 250, Observed: 270}}},
}

func (c corpusEntry) name() string { return "corpus-" + c.family }

func (c corpusEntry) path() string {
	return filepath.Join("testdata", "catalog_v5", c.family+CatalogExt)
}

// journal returns the tuner snapshot the entry's feedback encodes to.
func (c corpusEntry) journal(t testing.TB) []byte {
	t.Helper()
	tun := tuner.New(tuner.Config{})
	for _, rec := range c.feedback {
		if err := tun.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	return tun.Snapshot()
}

// encode builds the entry live and returns its catalog bytes.
func (c corpusEntry) encode(t testing.TB) []byte {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Create(wire.CreateRequest{Name: c.name(), Family: c.family,
		MemBytes: c.memBytes, Shards: c.shards, Seed: c.seed}); err != nil {
		t.Fatal(err)
	}
	e, err := reg.get(c.name())
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]float64, 600)
	for i := range vs {
		vs[i] = float64(i * 37 % 211)
	}
	if err := e.h.InsertBatch(vs); err != nil {
		t.Fatal(err)
	}
	e.tun, err = tuner.FromSnapshot(c.journal(t), tuner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeEntry(e, c.walLSN, c.siteWM)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCatalogV5Corpus pins the one catalog format: every frozen file
// decodes to the configuration, stamps and journal it was written with,
// and re-encoding the decoded entry reproduces the file byte for byte.
// Run with -update-catalog-corpus to regenerate the files after a
// deliberate format change.
func TestCatalogV5Corpus(t *testing.T) {
	for _, c := range catalogCorpus {
		if *updateCatalogCorpus {
			if err := os.MkdirAll(filepath.Dir(c.path()), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.path(), c.encode(t), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(c.path())
		if err != nil {
			t.Fatal(err)
		}
		e, err := DecodeEntry(data)
		if err != nil {
			t.Fatalf("%s: DecodeEntry: %v", c.path(), err)
		}
		if e.name != c.name() || e.memBytes != c.memBytes || e.shards != c.shards || e.seed != c.seed {
			t.Errorf("%s: config = %q/%d/%d/%d, want %q/%d/%d/%d", c.path(),
				e.name, e.memBytes, e.shards, e.seed, c.name(), c.memBytes, c.shards, c.seed)
		}
		if got := e.kind().String(); got != c.family {
			t.Errorf("%s: family = %q, want %q", c.path(), got, c.family)
		}
		if e.walLSN != c.walLSN || e.siteWM.Load() != c.siteWM {
			t.Errorf("%s: stamps = LSN %d watermark %d, want %d %d", c.path(),
				e.walLSN, e.siteWM.Load(), c.walLSN, c.siteWM)
		}
		if e.h.Total() <= 0 {
			t.Errorf("%s: restored total = %v, want > 0", c.path(), e.h.Total())
		}
		if !bytes.Equal(e.journal, c.journal(t)) {
			t.Errorf("%s: journal differs from the written feedback", c.path())
		}
		if tun := e.tunerFor(tuner.Config{}); tun.Len() != len(c.feedback) {
			t.Errorf("%s: journal holds %d records, want %d", c.path(), tun.Len(), len(c.feedback))
		}
		again, err := EncodeEntry(e, e.walLSN, e.siteWM.Load())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding the decoded entry changed %d bytes to %d", c.path(), len(data), len(again))
		}
	}
}
