package dynahist_test

import (
	"math"
	"testing"

	"dynahist"
)

func TestEDDadoPublic(t *testing.T) {
	h, err := dynahist.NewEDDadoMemory(dynahist.AbsDeviation, 1024)
	if err != nil {
		t.Fatal(err)
	}
	values := randomValues(11, 8000, 800)
	for _, v := range values {
		if err := h.Insert(float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Total() != 8000 {
		t.Fatalf("Total = %v", h.Total())
	}
	if got := h.EstimateRange(0, 800); math.Abs(got-8000) > 1e-6 {
		t.Fatalf("whole-range estimate %v", got)
	}
	ks, err := dynahist.KS(h, values)
	if err != nil {
		t.Fatal(err)
	}
	if ks > 0.1 {
		t.Fatalf("ED-DADO KS %v implausibly bad", ks)
	}
	if err := h.Delete(float64(values[0])); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 7999 {
		t.Fatalf("Total after delete = %v", h.Total())
	}
	if _, err := dynahist.NewEDDado(dynahist.AbsDeviation, 1); err == nil {
		t.Error("1 bucket: want error")
	}
	var _ dynahist.Histogram = h // interface compliance
}
