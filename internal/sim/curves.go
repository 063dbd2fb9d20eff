package sim

// Family is a curve's field family.
type Family int

const (
	PrimeFamily  Family = iota // GF(p), a = -3
	BinaryFamily               // GF(2^m), a = 1, cofactor 2
)

// CurveInfo is one row of the curve table: every fact about a NIST curve
// that pricing, the sweep's curve axis and the report read, so none of
// them constructs a curve. TestCurveTable checks each row against the
// curve internal/ec builds.
type CurveInfo struct {
	Name   string
	Family Family
	K      int // field element size in 32-bit words
	Bits   int // field size in bits (prime: F.Bits; binary: F.M)
	NBits  int // group-order size in bits
	// Level is the paper's security level, 1..5 (Figure 7.7 pairs the
	// prime and binary curve of each level), and SecurityBits its NIST
	// symmetric-equivalent strength (P-521's is AES-256, not 521/2).
	Level, SecurityBits int
}

// curveTable lists the ten NIST curves (FIPS 186-4), primes first, each
// family in ascending security order.
var curveTable = [...]CurveInfo{
	{"P-192", PrimeFamily, 6, 192, 192, 1, 96},
	{"P-224", PrimeFamily, 7, 224, 224, 2, 112},
	{"P-256", PrimeFamily, 8, 256, 256, 3, 128},
	{"P-384", PrimeFamily, 12, 384, 384, 4, 192},
	{"P-521", PrimeFamily, 17, 521, 521, 5, 256},
	{"B-163", BinaryFamily, 6, 163, 163, 1, 96},
	{"B-233", BinaryFamily, 8, 233, 233, 2, 112},
	{"B-283", BinaryFamily, 9, 283, 282, 3, 128},
	{"B-409", BinaryFamily, 13, 409, 409, 4, 192},
	{"B-571", BinaryFamily, 18, 571, 570, 5, 256},
}

// LookupCurve returns the named curve's row and whether it is one of the
// ten NIST curves.
func LookupCurve(name string) (CurveInfo, bool) {
	for _, c := range curveTable {
		if c.Name == name {
			return c, true
		}
	}
	return CurveInfo{}, false
}

// IsPrimeCurve reports whether name is one of the NIST prime curves.
func IsPrimeCurve(name string) bool {
	c, ok := LookupCurve(name)
	return ok && c.Family == PrimeFamily
}

// CurveNames lists one family's curves in ascending security order.
func CurveNames(f Family) []string {
	var out []string
	for _, c := range curveTable {
		if c.Family == f {
			out = append(out, c.Name)
		}
	}
	return out
}

// SecurityPairs pairs each prime curve with the binary curve of the same
// Level, in ascending level: Figure 7.7's rows.
func SecurityPairs() (out [][2]string) {
	for _, p := range curveTable {
		for _, b := range curveTable {
			if p.Family == PrimeFamily && b.Family == BinaryFamily && b.Level == p.Level {
				out = append(out, [2]string{p.Name, b.Name})
			}
		}
	}
	return out
}
