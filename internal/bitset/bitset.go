// Package bitset provides the word-packed boolean rows and square bit
// matrices backing the ordering relations of internal/order. A relation
// over n nodes is n rows of ceil(n/64) uint64 words, so membership tests
// are one shift-and-mask and relational closure steps (transitivity,
// fact transfer) are word-wide ORs instead of per-element loops.
package bitset

import "math/bits"

// Row is one row of a bit matrix: a fixed-capacity set over [0, 64*len).
// The zero value is an empty, zero-capacity set.
type Row []uint64

// NewRow returns an empty row with capacity for n bits.
func NewRow(n int) Row { return make(Row, words(n)) }

// Words reports the uint64 words a row of n bits occupies.
func Words(n int) int { return words(n) }

func words(n int) int { return (n + 63) >> 6 }

// Get reports whether bit i is set.
func (r Row) Get(i int) bool { return r[i>>6]&(1<<uint(i&63)) != 0 }

// Set sets bit i.
func (r Row) Set(i int) { r[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (r Row) Clear(i int) { r[i>>6] &^= 1 << uint(i&63) }

// Count returns the number of set bits.
func (r Row) Count() int {
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members appends the indices of every set bit to out, ascending, and
// returns the extended slice. Pass a reusable buffer to avoid allocation.
func (r Row) Members(out []int) []int {
	for wi, w := range r {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// Or folds src into dst word-wide (dst |= src) and reports whether any
// bit changed. The rows must have equal length.
func Or(dst, src Row) bool {
	changed := false
	for i, w := range src {
		if nv := dst[i] | w; nv != dst[i] {
			dst[i] = nv
			changed = true
		}
	}
	return changed
}

// AndNot removes src's bits from dst word-wide (dst &^= src). The rows
// must have equal length.
func AndNot(dst, src Row) {
	for i, w := range src {
		dst[i] &^= w
	}
}

// OrExcept is Or with up to two bit positions masked out of src before
// folding (pass a negative position to skip masking). Closure steps use
// it to keep guard conditions ("a node never precedes itself", "transfer
// skips the pair's own bits") while still working word-wide.
func OrExcept(dst, src Row, skip1, skip2 int) bool {
	var w1, w2 int = -1, -1
	var b1, b2 uint64
	if skip1 >= 0 {
		w1, b1 = skip1>>6, 1<<uint(skip1&63)
	}
	if skip2 >= 0 {
		w2, b2 = skip2>>6, 1<<uint(skip2&63)
	}
	changed := false
	for i, w := range src {
		if i == w1 {
			w &^= b1
		}
		if i == w2 {
			w &^= b2
		}
		if nv := dst[i] | w; nv != dst[i] {
			dst[i] = nv
			changed = true
		}
	}
	return changed
}

// Matrix is a square n x n bit matrix in one contiguous word slice. The
// zero value is an empty 0 x 0 matrix.
type Matrix struct {
	n     int
	wpr   int // words per row
	words []uint64
}

// NewMatrix returns an all-false n x n matrix.
func NewMatrix(n int) Matrix {
	w := words(n)
	return Matrix{n: n, wpr: w, words: make([]uint64, n*w)}
}

// MatrixWords reports the uint64 words an n x n matrix occupies.
func MatrixWords(n int) int { return n * words(n) }

// MatrixIn carves an all-false n x n matrix from the front of dst, which
// must hold MatrixWords(n) words, and returns it with the rest of dst.
func MatrixIn(dst []uint64, n int) (Matrix, []uint64) {
	k := MatrixWords(n)
	w := dst[:k:k]
	clear(w)
	return Matrix{n: n, wpr: words(n), words: w}, dst[k:]
}

// N returns the matrix dimension.
func (m Matrix) N() int { return m.n }

// Row returns row r as a shared (mutable) Row view.
func (m Matrix) Row(r int) Row { return Row(m.words[r*m.wpr : (r+1)*m.wpr]) }

// Get reports entry (r, c).
func (m Matrix) Get(r, c int) bool {
	return m.words[r*m.wpr+c>>6]&(1<<uint(c&63)) != 0
}

// Set sets entry (r, c).
func (m Matrix) Set(r, c int) {
	m.words[r*m.wpr+c>>6] |= 1 << uint(c&63)
}

// Equal reports whether the two matrices have identical dimension and
// contents.
func (m Matrix) Equal(o Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i, w := range m.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}
