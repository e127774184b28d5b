package txn

import "testing"

func TestDatasetBasics(t *testing.T) {
	d := NewDataset(100)
	if d.Len() != 0 || d.AvgLen() != 0 {
		t.Fatal("fresh dataset not empty")
	}
	id0 := d.Append(New(1, 2, 3))
	id1 := d.Append(New(4))
	if id0 != 0 || id1 != 1 {
		t.Fatalf("TIDs = %d, %d", id0, id1)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.ItemOccurrences() != 4 {
		t.Fatalf("ItemOccurrences = %d", d.ItemOccurrences())
	}
	if got := d.AvgLen(); got != 2 {
		t.Fatalf("AvgLen = %v", got)
	}
	if !d.Get(0).Equal(New(1, 2, 3)) {
		t.Fatalf("Get(0) = %v", d.Get(0))
	}
	if len(d.All()) != 2 {
		t.Fatalf("All() has %d entries", len(d.All()))
	}
}

func TestDatasetAppendOutsideUniverse(t *testing.T) {
	d := NewDataset(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Append accepted out-of-universe item")
		}
	}()
	d.Append(New(3, 10))
}

func TestNewDatasetPanicsOnBadUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDataset accepted non-positive universe")
		}
	}()
	NewDataset(0)
}

func TestDatasetSlice(t *testing.T) {
	d := NewDataset(10)
	for i := 0; i < 5; i++ {
		d.Append(New(Item(i)))
	}
	s := d.Slice(1, 4)
	if s.Len() != 3 {
		t.Fatalf("slice Len = %d", s.Len())
	}
	if !s.Get(0).Equal(New(1)) {
		t.Fatalf("slice Get(0) = %v", s.Get(0))
	}
	if s.UniverseSize() != 10 {
		t.Fatalf("slice universe = %d", s.UniverseSize())
	}
	if s.ItemOccurrences() != 3 {
		t.Fatalf("slice occurrences = %d", s.ItemOccurrences())
	}
}

func TestDatasetSliceBounds(t *testing.T) {
	d := NewDataset(10)
	d.Append(New(1))
	for _, bounds := range [][2]int{{-1, 1}, {0, 2}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) did not panic", bounds[0], bounds[1])
				}
			}()
			d.Slice(bounds[0], bounds[1])
		}()
	}
}

func TestDatasetGrow(t *testing.T) {
	d := NewDataset(10)
	d.Append(New(1))
	d.Grow(100)
	backing := &d.All()[0]
	for i := 0; i < 100; i++ {
		d.Append(New(2))
	}
	if &d.All()[0] != backing {
		t.Fatal("appends within the grown capacity reallocated")
	}
	if d.Len() != 101 || !d.Get(0).Equal(New(1)) || !d.Get(100).Equal(New(2)) {
		t.Fatal("Grow lost the dataset's transactions")
	}
}
