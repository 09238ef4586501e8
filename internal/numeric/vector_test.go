package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogSpace(t *testing.T) {
	v := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("v[%d] = %g, want %g", i, v[i], want[i])
		}
	}
}

func TestLogSpaceEndpointsExact(t *testing.T) {
	v := LogSpace(3.7, 91.2, 17)
	if v[0] != 3.7 || v[len(v)-1] != 91.2 {
		t.Fatalf("endpoints %g..%g, want 3.7..91.2", v[0], v[len(v)-1])
	}
}

func TestLogSpaceDegenerate(t *testing.T) {
	if got := LogSpace(5, 50, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("n=1: got %v", got)
	}
	if got := LogSpace(5, 50, 0); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
}

func TestLogSpacePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive bound")
		}
	}()
	LogSpace(0, 10, 3)
}

func TestLinSpace(t *testing.T) {
	v := LinSpace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Errorf("v[%d] = %g, want %g", i, v[i], want[i])
		}
	}
	if got := LinSpace(2, 9, 1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("n=1: got %v", got)
	}
}

func TestDecades(t *testing.T) {
	if d := Decades(10, 10000); math.Abs(d-3) > 1e-12 {
		t.Fatalf("Decades(10,10000) = %g, want 3", d)
	}
}

func TestDbRoundTrip(t *testing.T) {
	for _, mag := range []float64{0.001, 0.5, 1, 2, 1000} {
		if got := math.Pow(10, Db(mag)/20); math.Abs(got-mag) > 1e-9*mag {
			t.Errorf("round trip %g -> %g", mag, got)
		}
	}
	if !math.IsInf(Db(0), -1) {
		t.Error("Db(0) should be -Inf")
	}
}

// Property: LogSpace output is strictly increasing and within bounds.
func TestLogSpaceMonotoneProperty(t *testing.T) {
	f := func(a, b uint16, nRaw uint8) bool {
		lo := float64(a%1000) + 1
		hi := lo + float64(b%10000) + 1
		n := int(nRaw%50) + 2
		v := LogSpace(lo, hi, n)
		if len(v) != n {
			return false
		}
		for i := 1; i < len(v); i++ {
			if v[i] <= v[i-1] {
				return false
			}
		}
		return v[0] >= lo && v[len(v)-1] <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
