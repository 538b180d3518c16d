package bitset

import (
	"math/big"
	"math/rand"
	"testing"
)

// refSet is the math/big-backed reference model: a big.Int holding the same
// bits, truncated to the set's capacity after every mutating op (big.Int
// has unbounded width; the Set under test does not).
type refSet struct {
	n    *big.Int
	bits int
}

func newRef(words int) *refSet { return &refSet{n: new(big.Int), bits: words * 64} }

func (r *refSet) trunc() {
	mask := new(big.Int).Lsh(big.NewInt(1), uint(r.bits))
	mask.Sub(mask, big.NewInt(1))
	r.n.And(r.n, mask)
}

func (r *refSet) setBit(i uint)    { r.n.SetBit(r.n, int(i), 1) }
func (r *refSet) test(i uint) bool { return r.n.Bit(int(i)) == 1 }
func (r *refSet) and(o *refSet)    { r.n.And(r.n, o.n); r.trunc() }
func (r *refSet) andNot(o *refSet) { r.n.AndNot(r.n, o.n); r.trunc() }
func (r *refSet) or(o *refSet)     { r.n.Or(r.n, o.n); r.trunc() }
func (r *refSet) equal(o *refSet) bool {
	return r.n.Cmp(o.n) == 0
}
func (r *refSet) intersects(o *refSet) bool {
	return new(big.Int).And(r.n, o.n).Sign() != 0
}
func (r *refSet) popCount() int {
	n := 0
	for _, w := range r.n.Bits() {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
func (r *refSet) isZero() bool { return r.n.Sign() == 0 }

// checkAgainst asserts the Set and its reference agree on every observable.
func checkAgainst(t *testing.T, tag string, s Set, r *refSet) {
	t.Helper()
	if got, want := s.PopCount(), r.popCount(); got != want {
		t.Fatalf("%s: PopCount = %d, reference %d", tag, got, want)
	}
	if got, want := s.IsZero(), r.isZero(); got != want {
		t.Fatalf("%s: IsZero = %v, reference %v", tag, got, want)
	}
	for i := 0; i < len(s)*64; i++ {
		if got, want := s.Test(uint(i)), r.test(uint(i)); got != want {
			t.Fatalf("%s: Test(%d) = %v, reference %v", tag, i, got, want)
		}
	}
}

// applyOps drives the pair of sets (and their references) through a random
// op sequence, checking agreement after every step. Each byte of ops picks
// an operation and a bit index, so the sequence is replayable from a seed
// corpus entry.
func applyOps(t *testing.T, words int, ops []byte) {
	t.Helper()
	a, b := New(words), New(words)
	ra, rb := newRef(words), newRef(words)
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%8, uint(ops[k+1])%uint(words*64)
		switch op {
		case 0:
			a.SetBit(arg)
			ra.setBit(arg)
		case 1:
			b.SetBit(arg)
			rb.setBit(arg)
		case 2:
			a.And(b)
			ra.and(rb)
		case 3:
			a.AndNot(b)
			ra.andNot(rb)
		case 4:
			a.Or(b)
			ra.or(rb)
		case 5:
			a.Clear()
			ra.n.SetInt64(0)
		case 6:
			a.Copy(b)
			ra.n.Set(rb.n)
		case 7:
			if got, want := a.Intersects(b), ra.intersects(rb); got != want {
				t.Fatalf("op %d: Intersects = %v, reference %v", k, got, want)
			}
			if got, want := a.Equal(b), ra.equal(rb); got != want {
				t.Fatalf("op %d: Equal = %v, reference %v", k, got, want)
			}
		}
		checkAgainst(t, "a", a, ra)
		checkAgainst(t, "b", b, rb)
	}
}

// TestSetOpsRandomized replays seeded random op sequences at several word
// counts — the deterministic arm of the fuzz harness, always on in CI.
func TestSetOpsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, words := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 200; trial++ {
			ops := make([]byte, 64)
			rng.Read(ops)
			applyOps(t, words, ops)
		}
	}
}

// FuzzSetOps is the coverage-guided arm: `go test -fuzz=FuzzSetOps` mutates
// op sequences; plain `go test` replays the seed corpus.
func FuzzSetOps(f *testing.F) {
	f.Add(2, []byte{0, 5, 1, 5, 7, 0, 2, 9, 4, 70, 3, 70, 7, 0})
	f.Add(1, []byte{0, 63, 1, 63, 7, 1})
	f.Add(3, []byte{0, 190, 1, 64, 4, 0, 7, 2, 5, 0, 6, 1})
	f.Fuzz(func(t *testing.T, words int, ops []byte) {
		if words < 1 || words > 8 {
			return
		}
		applyOps(t, words, ops)
	})
}

func TestWords(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for nbits, want := range cases {
		if got := Words(nbits); got != want {
			t.Fatalf("Words(%d) = %d, want %d", nbits, got, want)
		}
	}
}

func TestFieldViewsAlias(t *testing.T) {
	f := NewField(3, 2)
	if f.Len() != 3 || f.Words() != 2 {
		t.Fatalf("shape = (%d, %d), want (3, 2)", f.Len(), f.Words())
	}
	f.At(1).SetBit(65)
	if !f.At(1).Test(65) {
		t.Fatal("write through view not visible")
	}
	if f.At(0).PopCount() != 0 || f.At(2).PopCount() != 0 {
		t.Fatal("view write leaked into sibling set")
	}
	g := NewField(3, 2)
	g.CopyFrom(f)
	if !g.At(1).Test(65) {
		t.Fatal("CopyFrom missed a word")
	}
	c := f.Clone()
	f.At(1).Clear()
	if !c.At(1).Test(65) {
		t.Fatal("Clone aliases the original")
	}
}
