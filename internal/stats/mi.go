package stats

import "math"

// MutualInformationBinary computes the mutual information, in nats, between
// two binary variables given as bool slices of equal length, using the
// plug-in estimator over the 2×2 contingency table:
//
//	I(X;Y) = Σ_x Σ_y P(x,y) log( P(x,y) / (P(x)P(y)) )
//
// This is the quantity the neighborhood analysis (§IV-A, Eq. 1) uses to rank
// users by how much their presence tells us about run optimality. Zero means
// statistical independence.
func MutualInformationBinary(x, y []bool) float64 {
	if len(x) != len(y) {
		panic("stats: MutualInformationBinary length mismatch")
	}
	n := len(x)
	if n == 0 {
		return 0
	}
	// joint counts: c[a][b] = #{i : x[i]==a, y[i]==b} with 0 = false, 1 = true
	var c [2][2]float64
	for i := range x {
		a, b := 0, 0
		if x[i] {
			a = 1
		}
		if y[i] {
			b = 1
		}
		c[a][b]++
	}
	nf := float64(n)
	px := [2]float64{(c[0][0] + c[0][1]) / nf, (c[1][0] + c[1][1]) / nf}
	py := [2]float64{(c[0][0] + c[1][0]) / nf, (c[0][1] + c[1][1]) / nf}
	var mi float64
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			pxy := c[a][b] / nf
			if pxy == 0 || px[a] == 0 || py[b] == 0 {
				continue
			}
			mi += pxy * math.Log(pxy/(px[a]*py[b]))
		}
	}
	if mi < 0 { // guard against tiny negative rounding noise
		mi = 0
	}
	return mi
}

// EntropyBinary returns the entropy, in nats, of a binary variable.
func EntropyBinary(x []bool) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	var ones float64
	for _, v := range x {
		if v {
			ones++
		}
	}
	p := ones / float64(n)
	if p == 0 || p == 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}
