package faultinject

import (
	"path/filepath"
	"testing"

	"loam/internal/atomicio"
)

func TestKillPointCrashesExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	kp := NewKillPoint(7, 3, FlavorBefore)
	fs := atomicio.NewFS(kp)
	for i := 0; i < 2; i++ {
		if err := fs.WriteFile(filepath.Join(dir, "f"), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer func() {
			if _, ok := recover().(*atomicio.Crash); !ok {
				t.Fatal("third write should crash")
			}
		}()
		fs.WriteFile(filepath.Join(dir, "f"), []byte("x"))
	}()
	if kp.Ops() != 3 {
		t.Fatalf("ops = %d, want 3", kp.Ops())
	}
}

func TestKillPointBaselineCountsWithoutCrashing(t *testing.T) {
	dir := t.TempDir()
	kp := NewKillPoint(7, 0, FlavorBefore)
	fs := atomicio.NewFS(kp)
	for i := 0; i < 5; i++ {
		if err := fs.WriteFile(filepath.Join(dir, "f"), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if kp.Ops() != 5 {
		t.Fatalf("ops = %d, want 5", kp.Ops())
	}
}

func TestFlavorForCyclesAllFlavors(t *testing.T) {
	seen := map[CrashFlavor]bool{}
	for n := 0; n < int(numFlavors); n++ {
		seen[FlavorFor(n)] = true
	}
	if len(seen) != int(numFlavors) {
		t.Fatalf("FlavorFor covers %d flavors, want %d", len(seen), numFlavors)
	}
}

func TestTornDecisionIsDeterministic(t *testing.T) {
	a := decisionFor(FlavorTorn, 42, 5)
	b := decisionFor(FlavorTorn, 42, 5)
	if a != b {
		t.Fatalf("same (seed, n) produced %+v vs %+v", a, b)
	}
	if a.Outcome != atomicio.CrashTorn {
		t.Fatalf("outcome = %v, want CrashTorn", a.Outcome)
	}
}
