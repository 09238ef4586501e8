package numeric

import (
	"errors"
	"testing"
)

// TestFactorInPlacePivotReslice checks that a pivot buffer whose length
// drifted but whose capacity still fits is resliced in place: the
// returned LU must alias the caller's backing array, not a silently
// allocated replacement that would orphan the recycled buffer.
func TestFactorInPlacePivotReslice(t *testing.T) {
	a, _ := testMatrix()
	buf := make([]int, 2, 8) // wrong length, ample capacity
	lu, err := FactorInPlace(a.Clone(), buf)
	if err != nil {
		t.Fatal(err)
	}
	got := lu.Pivot()
	if len(got) != 4 {
		t.Fatalf("pivot length = %d, want 4", len(got))
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("LU pivot does not alias the caller's buffer")
	}
}

// TestFactorInPlacePivotTooSmall checks the mismatch path that used to
// silently allocate: a non-nil pivot buffer with insufficient capacity is
// an ErrShape error.
func TestFactorInPlacePivotTooSmall(t *testing.T) {
	a, _ := testMatrix()
	if _, err := FactorInPlace(a.Clone(), make([]int, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

// TestFactorInPlaceNilPivotAllocates keeps the documented nil behavior.
func TestFactorInPlaceNilPivotAllocates(t *testing.T) {
	a, _ := testMatrix()
	lu, err := FactorInPlace(a.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lu.Pivot()) != 4 {
		t.Fatalf("pivot length = %d, want 4", len(lu.Pivot()))
	}
}
