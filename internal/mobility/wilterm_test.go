package mobility

import (
	"math"
	"math/big"
	"testing"

	"dita/internal/randx"
)

// refPrec is the working precision of the math/big reference: far more
// than the 53 bits any result is rounded to.
const refPrec = 200

func refFloat() *big.Float { return new(big.Float).SetPrec(refPrec) }

// refAtanh2 returns 2·atanh(z) = ln((1+z)/(1−z)) for |z| ≤ 1/3 from its
// power series.
func refAtanh2(z *big.Float) *big.Float {
	sum, pow := refFloat(), refFloat().Set(z)
	z2 := refFloat().Mul(z, z)
	for i := int64(1); pow.Sign() != 0 && pow.MantExp(nil)-sum.MantExp(nil) > -refPrec-8; i += 2 {
		sum.Add(sum, refFloat().Quo(pow, refFloat().SetInt64(i)))
		pow.Mul(pow, z2)
	}
	return sum.Add(sum, sum)
}

// refLn2 is ln 2 = 2·atanh(1/3).
func refLn2() *big.Float {
	return refAtanh2(refFloat().Quo(refFloat().SetInt64(1), refFloat().SetInt64(3)))
}

// refLog2 returns log2(x) for x > 0: x = m·2^e with m in [1/2, 1), and
// ln m = 2·atanh((m−1)/(m+1)), exact for powers of two.
func refLog2(x float64, ln2 *big.Float) *big.Float {
	m := refFloat()
	e := refFloat().SetFloat64(x).MantExp(m)
	if m.Cmp(big.NewFloat(0.5)) == 0 {
		return refFloat().SetInt64(int64(e - 1))
	}
	one := refFloat().SetInt64(1)
	l := refAtanh2(refFloat().Quo(refFloat().Sub(m, one), refFloat().Add(m, one)))
	l.Quo(l, ln2)
	return l.Add(l, refFloat().SetInt64(int64(e)))
}

// refExp2 returns 2^y: y = n + f with n = ⌊y⌋, and 2^f = exp(f·ln 2)
// from its Taylor series.
func refExp2(y, ln2 *big.Float) *big.Float {
	n, _ := y.Int64()
	if refFloat().SetInt64(n).Cmp(y) > 0 {
		n-- // Int64 truncates toward zero
	}
	t := refFloat().Sub(y, refFloat().SetInt64(n))
	t.Mul(t, ln2)
	sum, term := refFloat().SetInt64(1), refFloat().SetInt64(1)
	for i := int64(1); term.Sign() != 0 && term.MantExp(nil) > -refPrec-8; i++ {
		term.Mul(term, t)
		term.Quo(term, refFloat().SetInt64(i))
		sum.Add(sum, term)
	}
	return sum.SetMantExp(sum, int(n))
}

// rounded returns v rounded to the nearest float64.
func rounded(v *big.Float) float64 {
	f, _ := v.Float64()
	return f
}

// TestWillingnessTablesRegenerate recomputes every checked-in table
// entry and polynomial coefficient of the willingness term, correctly
// rounded, in math/big: the literals must equal them bit for bit.
func TestWillingnessTablesRegenerate(t *testing.T) {
	ln2 := refLn2()
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %x, correctly rounded %x", name, got, want)
		}
	}
	for k, c := range log2Tab {
		inv, _ := new(big.Float).SetPrec(53).Quo(big.NewFloat(128), big.NewFloat(float64(128+k))).Float64()
		check("log2Tab.inv", c.inv, inv)
		want := refLog2(inv, ln2)
		check("log2Tab.log", c.log, rounded(want.Neg(want))+0) // +0: −log2(1) is −0
	}
	for j, v := range exp2Tab {
		check("exp2Tab", v, rounded(refExp2(refFloat().SetFloat64(float64(j)/128), ln2)))
	}
	for j, c := range []float64{log2C1, log2C2, log2C3, log2C4, log2C5} {
		want := refFloat().Mul(ln2, refFloat().SetInt64(int64(j+1)))
		want.Quo(refFloat().SetInt64(1), want)
		if j%2 == 1 {
			want.Neg(want)
		}
		check("log2C", c, rounded(want))
	}
	fact := int64(1)
	for j, c := range []float64{expC2, expC3, expC4, expC5} {
		fact *= int64(j + 2)
		check("expC", c, rounded(refFloat().Quo(refFloat().SetInt64(1), refFloat().SetInt64(fact))))
	}
	check("ln2", math.Ln2, rounded(ln2))
}

// TestWillingnessTermErrorBound checks the fast path's per-term error
// against the bound Willingness32's doc comment derives for it,
// (2.1|y| + 115)u with u = 2⁻⁵³: 2^(−Shape·log2 x) from the table-driven
// log2 and exp2 must lie that close to x^(−Shape) computed in math/big.
// The bases x = d+1 cover [1, 1e7] log-uniformly, the knots 1+k/128 of
// log2's range reduction and the rounding boundaries between them
// (where |r| is largest) at several exponents, each with its ±1-ulp
// neighbours, and bases up to 2⁹⁶⁰ with shapes small enough to stay in
// the domain; shapes cover (0, 16]. A wrong coefficient or table entry
// shows up here rather than as a higher fallback rate.
func TestWillingnessTermErrorBound(t *testing.T) {
	rng := randx.New(32)
	var xs []float64
	n := 4000
	if testing.Short() {
		n = 400
	}
	for i := 0; i < n; i++ {
		xs = append(xs, math.Pow(1e7, rng.Float64()))
	}
	for _, e := range []int{0, 1, 9, 23} {
		for k := 0; k < 128; k++ {
			for _, c := range []float64{1 + float64(k)/128, 1 + (float64(k)+0.5)/128} {
				c = math.Ldexp(c, e)
				xs = append(xs, math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1)))
			}
		}
	}
	for i := 0; i < n/10; i++ {
		xs = append(xs, math.Ldexp(1+rng.Float64(), 24+rng.Intn(936)))
	}
	ln2 := refLn2()
	const u = 0x1p-53
	worst, worstRatio := 0.0, 0.0
	for _, x := range xs {
		if x < 1 {
			continue
		}
		lx := refLog2(x, ln2)
		maxShape := math.Min(16, -wilMinY/rounded(lx))
		for _, shape := range []float64{maxShape, maxShape * (1 - rng.Float64())} {
			if shape <= 0 {
				continue
			}
			y := -float64(shape * log2(x))
			if !(y >= wilMinY) {
				continue // outside the domain, where Willingness32 falls back
			}
			got := exp2(y)
			want := refExp2(refFloat().Mul(lx, refFloat().SetFloat64(-shape)), ln2)
			diff := refFloat().Sub(refFloat().SetFloat64(got), want)
			rel := math.Abs(rounded(diff.Quo(diff, want))) / u
			bound := 2.1*math.Abs(y) + 115
			if rel > bound {
				t.Errorf("x %v (%x) shape %v: 2^y = %x, relative error %.1fu above the bound (2.1|y| + 115)u = %.1fu",
					x, x, shape, got, rel, bound)
			}
			worst = math.Max(worst, rel)
			worstRatio = math.Max(worstRatio, rel/bound)
		}
	}
	t.Logf("%d bases: worst relative error %.2fu, worst share of the bound %.3f", len(xs), worst, worstRatio)
}
