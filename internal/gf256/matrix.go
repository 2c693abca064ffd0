package gf256

import "fmt"

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len Rows*Cols
}

// newMatrix allocates a zero matrix.
func newMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("gf256: non-positive matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// at returns element (r, c).
func (m *Matrix) at(r, c int) byte { return m.Data[r*m.Cols+c] }

// set assigns element (r, c).
func (m *Matrix) set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// clone returns a deep copy.
func (m *Matrix) clone() *Matrix {
	c := newMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Vandermonde returns the rows×cols matrix with entry (r,c) = α^(r·c).
// Any k rows of a Vandermonde matrix built this way over distinct
// evaluation points are linearly independent, the property that makes
// the derived code MDS.
func Vandermonde(rows, cols int) *Matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, exp(r*c%255))
		}
	}
	return m
}

// Mul returns m·other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: matrix shape mismatch %dx%d · %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := newMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		for i := 0; i < m.Cols; i++ {
			a := m.at(r, i)
			if a == 0 {
				continue
			}
			MulAddSlice(a, out.Row(r), other.Row(i))
		}
	}
	return out
}

// SubMatrix returns rows [r0,r1) × cols [c0,c1) as a new matrix.
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	out := newMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Row(r-r0), m.Row(r)[c0:c1])
	}
	return out
}

// Invert returns the inverse of the square matrix m, or an error if m
// is singular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.Rows, m.Cols)
	}
	inv := newMatrix(m.Rows, m.Rows)
	if err := m.clone().InvertInto(inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// InvertInto writes the inverse of the square matrix m into inv (same
// shape) via Gauss–Jordan elimination, using m itself as the work area:
// m is destroyed. It allocates nothing, for callers that recycle both.
func (m *Matrix) InvertInto(inv *Matrix) error {
	work, n := m, m.Rows
	if work.Cols != n || inv.Rows != n || inv.Cols != n {
		panic("gf256: InvertInto wants two square matrices of one size")
	}
	clear(inv.Data)
	for i := 0; i < n; i++ {
		inv.set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		// find pivot
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return fmt.Errorf("gf256: singular matrix (column %d)", col)
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// scale pivot row to 1
		if pv := work.at(col, col); pv != 1 {
			scale := inverse(pv)
			mulSlice(scale, work.Row(col), work.Row(col))
			mulSlice(scale, inv.Row(col), inv.Row(col))
		}
		// eliminate the column everywhere else
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.at(r, col); f != 0 {
				MulAddSlice(f, work.Row(r), work.Row(col))
				MulAddSlice(f, inv.Row(r), inv.Row(col))
			}
		}
	}
	return nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}
