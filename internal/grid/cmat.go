package grid

import (
	"errors"
	"fmt"
	"math/cmplx"
)

// CMat is a dense row-major matrix of complex128 values. It is the carrier
// type for frequency-domain data in the lithography simulator.
type CMat struct {
	W, H int
	Data []complex128
}

// NewCMat returns a zero-filled w×h complex matrix.
func NewCMat(w, h int) *CMat {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid matrix size %dx%d", w, h))
	}
	return &CMat{W: w, H: h, Data: make([]complex128, w*h)}
}

// At returns the element at (x, y).
func (m *CMat) At(x, y int) complex128 { return m.Data[y*m.W+x] }

// Set stores v at (x, y).
func (m *CMat) Set(x, y int, v complex128) { m.Data[y*m.W+x] = v }

// Clone returns a deep copy of m.
func (m *CMat) Clone() *CMat {
	c := NewCMat(m.W, m.H)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0.
func (m *CMat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func (m *CMat) mustMatch(o *CMat) {
	if m.W != o.W || m.H != o.H {
		panic(fmt.Sprintf("grid: shape mismatch %dx%d vs %dx%d", m.W, m.H, o.W, o.H))
	}
}

// MulElem sets m *= o element-wise.
func (m *CMat) MulElem(o *CMat) {
	m.mustMatch(o)
	for i, v := range o.Data {
		m.Data[i] *= v
	}
}

// Scale multiplies every element by a.
func (m *CMat) Scale(a complex128) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Conj conjugates every element in place.
func (m *CMat) Conj() {
	for i, v := range m.Data {
		m.Data[i] = cmplx.Conj(v)
	}
}

// Real extracts the real part into a new Mat.
func (m *CMat) Real() *Mat {
	out := NewMat(m.W, m.H)
	for i, v := range m.Data {
		out.Data[i] = real(v)
	}
	return out
}

// errRealIntoShape is RealInto's panic value: a preallocated error keeps
// the panic path from boxing a message at every inlined call site.
var errRealIntoShape = errors.New("grid: RealInto shape mismatch")

// RealInto overwrites dst with the real parts of m. The shapes must match.
func (m *CMat) RealInto(dst *Mat) {
	out := dst.Data
	if m.W != dst.W || m.H != dst.H || len(out) < len(m.Data) {
		panic(errRealIntoShape)
	}
	for i, v := range m.Data {
		out[i] = real(v)
	}
}

// AbsSq returns |m|² element-wise as a new Mat.
func (m *CMat) AbsSq() *Mat {
	out := NewMat(m.W, m.H)
	for i, v := range m.Data {
		re, im := real(v), imag(v)
		out.Data[i] = re*re + im*im
	}
	return out
}

// AbsSqScaledInto overwrites dst with a*|m|² element-wise. The arithmetic
// per element is exactly that of AddAbsSqScaled minus the accumulation, so
// a deferred dst.Add of the result reproduces the fused loop bit-for-bit —
// the property the parallel SOCS reduction in internal/litho relies on.
func (m *CMat) AbsSqScaledInto(dst *Mat, a float64) {
	if m.W != dst.W || m.H != dst.H {
		panic(fmt.Sprintf("grid: shape mismatch %dx%d vs %dx%d", m.W, m.H, dst.W, dst.H))
	}
	for i, v := range m.Data {
		re, im := real(v), imag(v)
		dst.Data[i] = a * (re*re + im*im)
	}
}

// AddAbsSqScaled accumulates dst += a*|m|² element-wise into dst.
func (m *CMat) AddAbsSqScaled(dst *Mat, a float64) {
	if m.W != dst.W || m.H != dst.H {
		panic(fmt.Sprintf("grid: shape mismatch %dx%d vs %dx%d", m.W, m.H, dst.W, dst.H))
	}
	for i, v := range m.Data {
		re, im := real(v), imag(v)
		dst.Data[i] += a * (re*re + im*im)
	}
}

// ComplexFromReal copies a real matrix into a fresh complex matrix.
func ComplexFromReal(m *Mat) *CMat {
	out := NewCMat(m.W, m.H)
	for i, v := range m.Data {
		out.Data[i] = complex(v, 0)
	}
	return out
}

// SetReal overwrites m with the values of r (imaginary parts zeroed).
// The shapes must match.
func (m *CMat) SetReal(r *Mat) {
	if m.W != r.W || m.H != r.H {
		panic(fmt.Sprintf("grid: shape mismatch %dx%d vs %dx%d", m.W, m.H, r.W, r.H))
	}
	for i, v := range r.Data {
		m.Data[i] = complex(v, 0)
	}
}

// MaxAbsDiff returns the largest |m[i]-o[i]|.
func (m *CMat) MaxAbsDiff(o *CMat) float64 {
	m.mustMatch(o)
	var s float64
	for i, v := range o.Data {
		if d := cmplx.Abs(m.Data[i] - v); d > s {
			s = d
		}
	}
	return s
}
