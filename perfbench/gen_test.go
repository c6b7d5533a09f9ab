package main

import "testing"

func TestGenerateCityDeterministic(t *testing.T) {
	a, invA := GenerateCity(7, 3, 3)
	b, invB := GenerateCity(7, 3, 3)
	if a.ContentHash() != b.ContentHash() || invA != invB {
		t.Fatalf("seed 7 generated two different cities")
	}
	c, _ := GenerateCity(8, 3, 3)
	if c.ContentHash() == a.ContentHash() {
		t.Fatalf("seeds 7 and 8 generated the same city")
	}
}
