// Package errmodel implements the reliability model of the paper: raw bit
// error rate (BER) as a function of P/E wear for conventional versus partial
// programming (Fig. 2, after Zhang et al., FAST'16), the extra disturb that
// partial programming inflicts on in-page and neighbouring data (Fig. 1),
// and the BCH ECC decode latency that turns raw errors into read time
// (Table 2: ECC min/max time).
package errmodel

import (
	"errors"
	"math"
	"time"

	"ipusim/internal/flash"
)

// Model is a parametric reliability model. The zero value is not usable;
// construct with Default or fill every field and call Validate.
type Model struct {
	// RefPE and RefBER anchor the conventional-programming curve:
	// RawBER(RefPE, conventional) == RefBER. The paper quotes
	// 0.00028 at 4000 P/E cycles.
	RefPE  float64
	RefBER float64
	// Exponent is the power-law growth of BER with P/E wear, fitted to the
	// Fig. 2 trend (error rate roughly triples from 4000 to 8000 cycles).
	Exponent float64
	// PartialFactor is the multiplicative penalty of a subpage written by a
	// partial-programming operation (paper: 0.00038/0.00028 ≈ 1.36 at
	// 4000 P/E).
	PartialFactor float64

	// InPageAlpha is the relative BER increase per partial-programming
	// operation applied to the same page while the subpage held valid data.
	InPageAlpha float64
	// NeighborBeta is the relative BER increase per partial-programming
	// operation applied to an adjacent page.
	NeighborBeta float64
	// ReprogramGamma is the relative BER increase per in-place reprogram
	// pass (SLC-to-MLC switch) the subpage survived while valid.
	// Reprogramming re-shifts the threshold voltage of already-written
	// cells without an erase, widening their voltage distributions.
	ReprogramGamma float64

	// CodewordDataBits is the payload covered by one BCH codeword; the
	// simulator uses one codeword per 4 KiB subpage.
	CodewordDataBits int
	// CorrectableBits is the BCH correction capability t per codeword.
	CorrectableBits int

	// ECCMin/ECCMax bound decode latency (Table 2).
	ECCMin, ECCMax time.Duration
	// DecodeExponent shapes the interpolation between ECCMin and ECCMax:
	// decode time grows as (errors/t)^DecodeExponent. The shape is
	// assumed, not measured: only its end points (Table 2's ECC min for a
	// clean codeword, max at t errors) come from the paper.
	DecodeExponent float64
	// MaxRetries bounds read-retry attempts when raw errors exceed the
	// correction capability. Each retry re-senses the page with tuned
	// reference voltages, roughly halving the raw error count.
	MaxRetries int
}

// Default returns the model calibrated to the paper's quoted numbers and
// Table 2's ECC latencies.
func Default() Model {
	return Model{
		RefPE:            4000,
		RefBER:           2.8e-4,
		Exponent:         1.55,
		PartialFactor:    3.8e-4 / 2.8e-4,
		InPageAlpha:      0.045,
		NeighborBeta:     0.01,
		ReprogramGamma:   0.25,
		CodewordDataBits: 4096 * 8,
		CorrectableBits:  40,
		ECCMin:           500 * time.Nanosecond,
		ECCMax:           96800 * time.Nanosecond,
		DecodeExponent:   2,
		MaxRetries:       3,
	}
}

// Validate reports a descriptive error for inconsistent parameters.
func (m *Model) Validate() error {
	switch {
	case m.RefPE <= 0 || m.RefBER <= 0:
		return errors.New("errmodel: reference point must be positive")
	case m.Exponent <= 0:
		return errors.New("errmodel: Exponent must be positive")
	case m.PartialFactor < 1:
		return errors.New("errmodel: PartialFactor must be >= 1")
	case m.InPageAlpha < 0 || m.NeighborBeta < 0:
		return errors.New("errmodel: disturb coefficients must be non-negative")
	case m.ReprogramGamma < 0:
		return errors.New("errmodel: ReprogramGamma must be non-negative")
	case m.CodewordDataBits <= 0 || m.CorrectableBits <= 0:
		return errors.New("errmodel: codeword geometry must be positive")
	case m.ECCMin < 0 || m.ECCMax < m.ECCMin:
		return errors.New("errmodel: need 0 <= ECCMin <= ECCMax")
	case m.DecodeExponent <= 0:
		return errors.New("errmodel: DecodeExponent must be positive")
	case m.MaxRetries < 0:
		return errors.New("errmodel: MaxRetries must be non-negative")
	}
	return nil
}

// RawBER returns the raw bit error rate of a subpage at the given P/E wear,
// distinguishing how the subpage itself was programmed. This is the Fig. 2
// curve.
func (m *Model) RawBER(pe int, partial bool) float64 {
	if pe < 1 {
		pe = 1
	}
	ber := m.RefBER * math.Pow(float64(pe)/m.RefPE, m.Exponent)
	if partial {
		ber *= m.PartialFactor
	}
	return ber
}

// EffectiveBER returns the bit error rate observed when reading a subpage,
// combining the programming-mode base rate with accumulated in-page and
// neighbouring-page disturb and in-place reprogram stress. With zero
// stress counts the result is exactly the base rate.
func (m *Model) EffectiveBER(pe int, sp *flash.Subpage) float64 {
	return m.StressedBER(m.RawBER(pe, sp.Partial()), int(sp.InPageDisturb), int(sp.NeighborDisturb), sp.ReprogramStress())
}

// StressedBER applies the disturb and reprogram stress terms to an already
// computed base (Fig. 2) rate. It is the second half of EffectiveBER,
// split out so callers that memoise RawBER (the device's read path)
// evaluate the exact same expression and stay bit-identical with the
// direct path.
func (m *Model) StressedBER(base float64, inPage, neighbor, reprogram int) float64 {
	return base * (1 +
		m.InPageAlpha*float64(inPage) +
		m.NeighborBeta*float64(neighbor) +
		m.ReprogramGamma*float64(reprogram))
}

// ExpectedErrors converts a BER into the expected raw bit errors of one
// codeword.
func (m *Model) ExpectedErrors(ber float64) float64 {
	return ber * float64(m.CodewordDataBits)
}

// ReadCost is the ECC outcome of reading one subpage.
type ReadCost struct {
	// BER is the effective bit error rate of the subpage.
	BER float64
	// Errors is the expected raw bit errors in the codeword.
	Errors float64
	// DecodeTime is the total ECC decode latency including retries.
	DecodeTime time.Duration
	// Retries is the number of extra sensing operations the read needed
	// because raw errors exceeded the correction capability.
	Retries int
	// Uncorrectable is set when even MaxRetries could not bring the error
	// count within the correction capability.
	Uncorrectable bool
}

// SubpageReadCost evaluates the full read-path reliability cost of one
// subpage at the given P/E wear.
func (m *Model) SubpageReadCost(pe int, sp *flash.Subpage) ReadCost {
	ber := m.EffectiveBER(pe, sp)
	return m.CostFromBER(ber)
}

// CostFromBER computes decode latency and retry count for a given effective
// BER. Exposed separately so synthetic studies (Fig. 2, endurance sweeps)
// can evaluate the ECC path without flash state.
func (m *Model) CostFromBER(ber float64) ReadCost {
	c := ReadCost{BER: ber, Errors: m.ExpectedErrors(ber)}
	e := c.Errors
	t := float64(m.CorrectableBits)
	for e > t {
		if c.Retries >= m.MaxRetries {
			c.Uncorrectable = true
			break
		}
		// A retry re-senses with tuned reference voltages; model the raw
		// error count halving per attempt.
		c.Retries++
		c.DecodeTime += m.ECCMax
		e /= 2
	}
	frac := e / t
	if frac > 1 {
		frac = 1
	}
	c.DecodeTime += m.ECCMin + time.Duration(float64(m.ECCMax-m.ECCMin)*math.Pow(frac, m.DecodeExponent))
	return c
}

// CurvePoint is one (P/E, BER) sample of the Fig. 2 curves.
type CurvePoint struct {
	PE                  int
	Conventional        float64
	Partial             float64
	ConvDecode, PartDec time.Duration
}

// Curve samples the conventional and partial programming BER curves at the
// given P/E cycle counts, reproducing Fig. 2 (and the ECC latency behind
// Figs. 13–14).
func (m *Model) Curve(pes []int) []CurvePoint {
	out := make([]CurvePoint, 0, len(pes))
	for _, pe := range pes {
		conv := m.RawBER(pe, false)
		part := m.RawBER(pe, true)
		out = append(out, CurvePoint{
			PE:           pe,
			Conventional: conv,
			Partial:      part,
			ConvDecode:   m.CostFromBER(conv).DecodeTime,
			PartDec:      m.CostFromBER(part).DecodeTime,
		})
	}
	return out
}
