// Package verify checks the paper's optimality claims on concrete
// simulated executions. Unlike the synchronizer, it is allowed to see the
// ground truth (actual delays and start times), so it can compute:
//
//   - the *true* maximal local/global shifts (Lemmas 6.2/6.5 applied to
//     actual delays, then Theorem 5.4's shortest-path computation);
//   - rho-bar(x), the guaranteed precision of any correction vector x on
//     the instance (the sup in Section 3, in closed form via Lemma 4.3);
//   - adversarial equivalent executions that realize (arbitrarily closely)
//     the guaranteed precision, following the shift construction of
//     Lemma 5.3.
//
// Together these verify Theorem 4.6 end to end: the algorithm's reported
// precision equals the true A_max, equals rho-bar of its corrections, and
// no other correction vector has smaller rho-bar.
package verify

import (
	"fmt"
	"math"
	"math/rand"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// TrueMLS computes the matrix of actual maximal local shifts of the
// execution under the given per-link assumptions, using real delays.
func TrueMLS(e *model.Execution, links []core.Link, opts core.MLSOptions) ([][]float64, error) {
	tab, err := trace.CollectActual(e, false)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	mls, err := core.MLSMatrix(e.N(), links, tab, opts)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return mls, nil
}

// TrueMS computes the matrix of actual maximal global shifts (Theorem 5.4).
func TrueMS(e *model.Execution, links []core.Link, opts core.MLSOptions) ([][]float64, error) {
	mls, err := TrueMLS(e, links, opts)
	if err != nil {
		return nil, err
	}
	ms, err := core.GlobalEstimates(mls) // same shortest-path computation
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return ms, nil
}

// RhoBar evaluates the guaranteed precision of corrections x on an
// execution with the given true start times and true maximal global
// shifts:
//
//	rho-bar(x) = max over ordered pairs (p,q) of
//	             (S_p - x_p) - (S_q - x_q) + ms(p,q).
//
// This is the supremum over all admissible executions equivalent to the
// observed one of the realized discrepancy (Lemma 4.3 made tight).
func RhoBar(starts []float64, msTrue [][]float64, x []float64) (float64, error) {
	n := len(starts)
	if len(x) != n || len(msTrue) != n {
		return 0, fmt.Errorf("verify: dimension mismatch (starts=%d, ms=%d, x=%d)", n, len(msTrue), len(x))
	}
	worst := math.Inf(-1)
	if n <= 1 {
		return 0, nil
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			v := (starts[p] - x[p]) - (starts[q] - x[q]) + msTrue[p][q]
			if v > worst {
				worst = v
			}
		}
	}
	return worst, nil
}

// Certificate summarizes an optimality check of one synchronization run.
type Certificate struct {
	// AMaxEstimated is the precision the algorithm reported from views.
	AMaxEstimated float64
	// AMaxTrue is A_max computed from actual delays; Lemma 4.5 says the
	// two must coincide.
	AMaxTrue float64
	// RhoBarOptimal is rho-bar of the algorithm's corrections; Theorem 4.6
	// says it equals A_max.
	RhoBarOptimal float64
	// Rho is the realized discrepancy on the observed execution; always
	// <= RhoBarOptimal.
	Rho float64
	// BestAlternative is the smallest rho-bar among the random alternative
	// correction vectors tried; instance optimality requires it to be
	// >= AMaxTrue (up to noise).
	BestAlternative float64
	// Alternatives is the number of alternative vectors evaluated.
	Alternatives int
}

// Ok reports whether the certificate is internally consistent within tol.
func (c *Certificate) Ok(tol float64) error {
	if math.IsInf(c.AMaxEstimated, 1) != math.IsInf(c.AMaxTrue, 1) {
		return fmt.Errorf("verify: estimated A_max %v vs true %v disagree about finiteness", c.AMaxEstimated, c.AMaxTrue)
	}
	if !math.IsInf(c.AMaxTrue, 1) {
		if math.Abs(c.AMaxEstimated-c.AMaxTrue) > tol {
			return fmt.Errorf("verify: Lemma 4.5 violated: estimated A_max %v != true %v", c.AMaxEstimated, c.AMaxTrue)
		}
		if math.Abs(c.RhoBarOptimal-c.AMaxTrue) > tol {
			return fmt.Errorf("verify: Theorem 4.6 violated: rho-bar %v != A_max %v", c.RhoBarOptimal, c.AMaxTrue)
		}
		if c.Rho > c.RhoBarOptimal+tol {
			return fmt.Errorf("verify: realized rho %v exceeds guarantee %v", c.Rho, c.RhoBarOptimal)
		}
		if c.Alternatives > 0 && c.BestAlternative < c.AMaxTrue-tol {
			return fmt.Errorf("verify: optimality violated: alternative with rho-bar %v < A_max %v", c.BestAlternative, c.AMaxTrue)
		}
	}
	return nil
}

// CheckOptimality runs the whole verification for a synchronization result
// on its execution: Lemma 4.5 (estimates suffice), Theorem 4.6 (achieved
// precision), and instance optimality against `trials` random
// perturbations of the correction vector.
func CheckOptimality(e *model.Execution, links []core.Link, mopts core.MLSOptions, res *core.Result, trials int, seed int64) (*Certificate, error) {
	starts := e.Starts()
	msTrue, err := TrueMS(e, links, mopts)
	if err != nil {
		return nil, err
	}
	n := e.N()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	aTrue, _ := core.AMax(msTrue, all)
	if len(res.Components) != 1 {
		aTrue = math.Inf(1)
	}

	cert := &Certificate{
		AMaxEstimated: res.Precision,
		AMaxTrue:      aTrue,
	}
	rb, err := RhoBar(starts, msTrue, res.Corrections)
	if err != nil {
		return nil, err
	}
	cert.RhoBarOptimal = rb
	rho, err := core.Rho(starts, res.Corrections)
	if err != nil {
		return nil, err
	}
	cert.Rho = rho

	if trials > 0 && !math.IsInf(aTrue, 1) {
		rng := rand.New(rand.NewSource(seed))
		best := math.Inf(1)
		scale := 1 + math.Abs(aTrue)
		for i := 0; i < trials; i++ {
			alt := make([]float64, n)
			for j := range alt {
				alt[j] = res.Corrections[j] + (rng.Float64()*2-1)*scale
			}
			v, err := RhoBar(starts, msTrue, alt)
			if err != nil {
				return nil, err
			}
			if v < best {
				best = v
			}
		}
		cert.BestAlternative = best
		cert.Alternatives = trials
	}
	return cert, nil
}

// AdversarialShift constructs, per Lemma 5.3, a shift vector that moves
// processor q as far from p as the true local constraints allow (scaled by
// gamma in (0,1) to stay strictly admissible), and returns the shifted
// execution. The shifted execution is equivalent to e, remains admissible
// under the links' assumptions, and realizes a discrepancy approaching the
// guarantee as gamma -> 1.
func AdversarialShift(e *model.Execution, links []core.Link, mopts core.MLSOptions, p, q model.ProcID, gamma float64) (*model.Execution, []float64, error) {
	if gamma <= 0 || gamma >= 1 {
		return nil, nil, fmt.Errorf("verify: gamma %v outside (0,1)", gamma)
	}
	mls, err := TrueMLS(e, links, mopts)
	if err != nil {
		return nil, nil, err
	}
	ms, err := core.GlobalEstimates(mls)
	if err != nil {
		return nil, nil, err
	}
	n := e.N()
	if int(p) < 0 || int(p) >= n || int(q) < 0 || int(q) >= n {
		return nil, nil, fmt.Errorf("verify: pair (p%d,p%d) out of range", p, q)
	}
	if math.IsInf(ms[p][q], 1) {
		return nil, nil, fmt.Errorf("verify: ms(p%d,p%d) is infinite; no finite adversarial shift", p, q)
	}
	// Lemma 5.3: s_i = gamma * dist_mls(p, i) is a globally admissible
	// shift vector with s_q - s_p = gamma * ms(p,q). The construction
	// needs every processor reachable from p under finite local shifts.
	shifts := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.IsInf(ms[p][i], 1) {
			return nil, nil, fmt.Errorf("verify: p%d unreachable from p%d under finite shifts; adversarial construction needs one sync component", i, p)
		}
		shifts[i] = gamma * ms[p][i]
	}
	shifted, err := e.Shift(shifts)
	if err != nil {
		return nil, nil, err
	}
	return shifted, shifts, nil
}

// CheckAdmissible verifies that an execution's actual delays satisfy every
// link assumption (and non-negativity when the options request it).
func CheckAdmissible(e *model.Execution, links []core.Link, mopts core.MLSOptions) error {
	tab, err := trace.CollectActual(e, true)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for _, l := range links {
		if err := l.Validate(e.N()); err != nil {
			return err
		}
		pq := tab.Raw(l.P, l.Q)
		qp := tab.Raw(l.Q, l.P)
		if !l.A.Admits(pq, qp) {
			return fmt.Errorf("verify: link (p%d,p%d) violates %v", l.P, l.Q, l.A)
		}
	}
	if mopts.AssumeNonnegative {
		nb := delay.NoBounds()
		var bad error
		tab.Pairs(func(p, q model.ProcID, pqStats, qpStats trace.DirStats) {
			if bad != nil {
				return
			}
			if !nb.Admits(tab.Raw(p, q), tab.Raw(q, p)) {
				bad = fmt.Errorf("verify: negative delay on (p%d,p%d)", p, q)
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// PairRhoBar evaluates the guaranteed per-pair discrepancy of corrections
// x between p and q from ground truth:
//
//	max( ms(p,q) + (S_p - x_p) - (S_q - x_q),
//	     ms(q,p) + (S_q - x_q) - (S_p - x_p) ).
//
// It equals Result.PairBound computed from views (the estimates fold the
// start times through exactly), which the tests verify.
func PairRhoBar(starts []float64, msTrue [][]float64, x []float64, p, q int) (float64, error) {
	n := len(starts)
	if len(x) != n || len(msTrue) != n {
		return 0, fmt.Errorf("verify: dimension mismatch")
	}
	if p < 0 || p >= n || q < 0 || q >= n {
		return 0, fmt.Errorf("verify: pair (%d,%d) out of range", p, q)
	}
	if p == q {
		return 0, nil
	}
	fwd := msTrue[p][q] + (starts[p] - x[p]) - (starts[q] - x[q])
	rev := msTrue[q][p] + (starts[q] - x[q]) - (starts[p] - x[p])
	return math.Max(fwd, rev), nil
}

// CycleCertificate is an exact optimality certificate: a cyclic processor
// sequence whose mean true maximal shift equals the claimed precision. By
// Theorem 4.4 this proves NO correction function can guarantee less — a
// witness stronger than any amount of random alternative search.
type CycleCertificate struct {
	Cycle []int
	Mean  float64
}

// ExactCertificate validates the synchronizer's critical cycle against
// ground truth: the cycle's mean of TRUE maximal global shifts must equal
// the reported precision (Lemma 4.5 says estimated and true cycle means
// coincide).
func ExactCertificate(e *model.Execution, links []core.Link, mopts core.MLSOptions, res *core.Result) (*CycleCertificate, error) {
	if res.CriticalCycle == nil {
		return nil, fmt.Errorf("verify: result carries no critical cycle")
	}
	n := e.N()
	if len(res.Corrections) != n {
		return nil, fmt.Errorf("verify: result has %d corrections for a %d-processor execution", len(res.Corrections), n)
	}
	cyc := res.CriticalCycle
	k := len(cyc) - 1
	if k < 1 || cyc[0] != cyc[k] {
		return nil, fmt.Errorf("verify: malformed critical cycle %v", cyc)
	}
	for _, v := range cyc {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("verify: critical cycle vertex %d outside [0,%d)", v, n)
		}
	}
	msTrue, err := TrueMS(e, links, mopts)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for i := 0; i < k; i++ {
		w := msTrue[cyc[i]][cyc[i+1]]
		if math.IsInf(w, 1) {
			return nil, fmt.Errorf("verify: critical cycle uses unreachable pair (p%d,p%d)", cyc[i], cyc[i+1])
		}
		total += w
	}
	mean := total / float64(k)
	if math.Abs(mean-res.Precision) > 1e-9*(1+math.Abs(res.Precision)) {
		return nil, fmt.Errorf("verify: critical cycle mean %v != claimed precision %v", mean, res.Precision)
	}
	return &CycleCertificate{Cycle: append([]int(nil), cyc...), Mean: mean}, nil
}
