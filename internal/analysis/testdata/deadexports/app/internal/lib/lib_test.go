package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 {
		t.Fatal("TestOnly")
	}
}

func TestTallyBump(t *testing.T) {
	tl := NewTally()
	if tl.Bump() != 1 || tl.testRead != 1 {
		t.Fatal("Bump")
	}
}
