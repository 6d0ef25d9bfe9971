package hw

import (
	"sync"
	"testing"
)

// TestChipMemoStartsOverWhenFull fills a memo past its bound: it must
// never hold more than the bound, and a chip first seen after the bound
// was reached must still be memoized.
func TestChipMemoStartsOverWhenFull(t *testing.T) {
	const bound = 64
	m := NewChipMemo[int](bound)
	for i := 0; i < 3*bound+1; i++ {
		m.Store(&Chip{}, i)
		if n := m.Len(); n > bound {
			t.Fatalf("after %d stores the memo holds %d chips, bound %d", i+1, n, bound)
		}
	}
	fresh := &Chip{}
	if _, ok := m.Load(fresh); ok {
		t.Fatal("fresh chip found before Store")
	}
	m.Store(fresh, 7)
	if v, ok := m.Load(fresh); !ok || v != 7 {
		t.Fatalf("fresh chip after Store = %d, %v; want 7, true", v, ok)
	}
	m.Store(fresh, 8)
	if v, _ := m.Load(fresh); v != 7 {
		t.Errorf("second Store replaced the value: got %d, want 7", v)
	}
}

func TestChipMemoConcurrent(t *testing.T) {
	const bound = 16
	m := NewChipMemo[*Chip](bound)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := &Chip{}
				m.Store(c, c)
				if v, ok := m.Load(c); ok && v != c {
					t.Error("memo returned another chip's value")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := m.Len(); n > bound {
		t.Errorf("memo holds %d chips, bound %d", n, bound)
	}
}
