package union_test

import (
	"testing"

	"dynahist/internal/histogram"
	"dynahist/internal/metric"
	"dynahist/internal/static"
	"dynahist/internal/union"
)

// Integration: the two §8 strategies produce global histograms of
// similar quality (paper's conclusion from Figs. 20-23).
func TestUnionStrategiesComparable(t *testing.T) {
	cfg := union.DefaultSites(3)
	cfg.TotalPoints = 20000
	sites, all, err := union.GenerateSites(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const mem = 250
	// histogram + union.
	var members [][]histogram.Bucket
	for _, s := range sites {
		h, err := static.SSBMMemory(s, mem)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, h.Buckets())
	}
	super, err := union.Superpose(members...)
	if err != nil {
		t.Fatal(err)
	}
	n, err := histogram.BucketsForMemory(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := union.Reduce(super, n)
	if err != nil {
		t.Fatal(err)
	}
	ksHU, err := metric.KS(union.CDFOf(reduced), all)
	if err != nil {
		t.Fatal(err)
	}
	// union + histogram.
	direct, err := static.SSBMMemory(all, mem)
	if err != nil {
		t.Fatal(err)
	}
	ksUH, err := metric.KS(direct.CDF, all)
	if err != nil {
		t.Fatal(err)
	}
	if ksHU > 5*ksUH+0.05 || ksUH > 5*ksHU+0.05 {
		t.Errorf("strategies should be comparable: hist+union %v vs union+hist %v", ksHU, ksUH)
	}
}
