package errmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ipusim/internal/flash"
)

func TestDefaultValidates(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatalf("Default model invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Model)
	}{
		{"zero ref pe", func(m *Model) { m.RefPE = 0 }},
		{"zero ref ber", func(m *Model) { m.RefBER = 0 }},
		{"zero exponent", func(m *Model) { m.Exponent = 0 }},
		{"partial factor below one", func(m *Model) { m.PartialFactor = 0.9 }},
		{"negative alpha", func(m *Model) { m.InPageAlpha = -0.1 }},
		{"negative beta", func(m *Model) { m.NeighborBeta = -0.1 }},
		{"negative gamma", func(m *Model) { m.ReprogramGamma = -0.1 }},
		{"zero codeword", func(m *Model) { m.CodewordDataBits = 0 }},
		{"zero correctable", func(m *Model) { m.CorrectableBits = 0 }},
		{"ecc max below min", func(m *Model) { m.ECCMax = m.ECCMin - 1 }},
		{"zero decode exponent", func(m *Model) { m.DecodeExponent = 0 }},
		{"negative retries", func(m *Model) { m.MaxRetries = -1 }},
	}
	for _, mu := range muts {
		m := Default()
		mu.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", mu.name)
		}
	}
}

// TestPaperAnchorPoints checks the two numbers the paper quotes from Fig. 2:
// 0.00028 (conventional) and 0.00038 (partial) at 4000 P/E cycles.
func TestPaperAnchorPoints(t *testing.T) {
	m := Default()
	if got := m.RawBER(4000, false); math.Abs(got-2.8e-4) > 1e-9 {
		t.Errorf("conventional BER at 4000 PE = %g, want 2.8e-4", got)
	}
	if got := m.RawBER(4000, true); math.Abs(got-3.8e-4) > 1e-9 {
		t.Errorf("partial BER at 4000 PE = %g, want 3.8e-4", got)
	}
}

func TestBERMonotonicInPE(t *testing.T) {
	m := Default()
	prev := 0.0
	for pe := 500; pe <= 16000; pe += 500 {
		got := m.RawBER(pe, false)
		if got <= prev {
			t.Fatalf("BER not increasing at PE=%d: %g <= %g", pe, got, prev)
		}
		prev = got
	}
}

func TestBERPartialAlwaysWorse(t *testing.T) {
	m := Default()
	f := func(pe uint16) bool {
		p := int(pe)%12000 + 1
		return m.RawBER(p, true) > m.RawBER(p, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBERClampsNonPositivePE(t *testing.T) {
	m := Default()
	if got, want := m.RawBER(0, false), m.RawBER(1, false); got != want {
		t.Errorf("PE=0 should clamp to 1: %g vs %g", got, want)
	}
	if got, want := m.RawBER(-5, false), m.RawBER(1, false); got != want {
		t.Errorf("negative PE should clamp to 1: %g vs %g", got, want)
	}
}

// validSubpage builds a valid slot with the given partial bit, disturb
// counts and reprogram stress.
func validSubpage(partial bool, inPage, neighbor uint8, reprogram int) flash.Subpage {
	sp := flash.Subpage{State: flash.SubValid, InPageDisturb: inPage, NeighborDisturb: neighbor}
	sp.SetPartial(partial)
	sp.SetReprogramStress(reprogram)
	return sp
}

func TestEffectiveBERDisturbScaling(t *testing.T) {
	m := Default()
	clean := flash.Subpage{State: flash.SubValid}
	base := m.EffectiveBER(4000, &clean)
	if math.Abs(base-m.RawBER(4000, false)) > 1e-12 {
		t.Fatalf("undisturbed subpage must see base BER")
	}
	inpage := flash.Subpage{State: flash.SubValid, InPageDisturb: 3}
	if got, want := m.EffectiveBER(4000, &inpage), base*(1+3*m.InPageAlpha); math.Abs(got-want) > 1e-12 {
		t.Errorf("in-page disturbed BER = %g, want %g", got, want)
	}
	neigh := flash.Subpage{State: flash.SubValid, NeighborDisturb: 5}
	if got, want := m.EffectiveBER(4000, &neigh), base*(1+5*m.NeighborBeta); math.Abs(got-want) > 1e-12 {
		t.Errorf("neighbour disturbed BER = %g, want %g", got, want)
	}
	both := validSubpage(true, 2, 2, 0)
	want := m.RawBER(4000, true) * (1 + 2*m.InPageAlpha + 2*m.NeighborBeta)
	if got := m.EffectiveBER(4000, &both); math.Abs(got-want) > 1e-12 {
		t.Errorf("combined BER = %g, want %g", got, want)
	}
}

// TestEffectiveBERReprogramStress pins the in-place reprogram penalty: the
// table anchors the additive term at known stress counts, zero stress must
// reproduce the pre-switch EffectiveBER exactly, and the term composes with
// the partial/disturb factors it shares the multiplier with.
func TestEffectiveBERReprogramStress(t *testing.T) {
	m := Default()
	base := m.RawBER(4000, false)
	cases := []struct {
		name string
		sp   flash.Subpage
		want float64
	}{
		{"zero stress equals base", flash.Subpage{State: flash.SubValid}, base},
		{"one pass", validSubpage(false, 0, 0, 1), base * (1 + m.ReprogramGamma)},
		{"three passes", validSubpage(false, 0, 0, 3), base * (1 + 3*m.ReprogramGamma)},
		{"stress with partial", validSubpage(true, 0, 0, 2),
			m.RawBER(4000, true) * (1 + 2*m.ReprogramGamma)},
		{"stress with disturb", validSubpage(false, 2, 1, 1),
			base * (1 + 2*m.InPageAlpha + 1*m.NeighborBeta + 1*m.ReprogramGamma)},
	}
	for _, c := range cases {
		if got := m.EffectiveBER(4000, &c.sp); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("%s: EffectiveBER = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestEffectiveBERMonotonicInReprogramStress checks each additional switch
// pass strictly raises the read error rate.
func TestEffectiveBERMonotonicInReprogramStress(t *testing.T) {
	m := Default()
	prev := 0.0
	for stress := 0; stress <= 16; stress++ {
		sp := validSubpage(false, 0, 0, stress)
		got := m.EffectiveBER(4000, &sp)
		if got <= prev {
			t.Fatalf("BER not increasing at stress=%d: %g <= %g", stress, got, prev)
		}
		prev = got
	}
}

func TestInPageDisturbDominatesNeighbor(t *testing.T) {
	// The paper's core claim rests on in-page disturb being the dominant
	// partial-programming penalty; the model must reflect that.
	m := Default()
	if m.InPageAlpha <= m.NeighborBeta {
		t.Fatalf("InPageAlpha (%g) must exceed NeighborBeta (%g)", m.InPageAlpha, m.NeighborBeta)
	}
}

func TestExpectedErrors(t *testing.T) {
	m := Default()
	got := m.ExpectedErrors(2.8e-4)
	want := 2.8e-4 * 4096 * 8
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedErrors = %g, want %g", got, want)
	}
}

func TestDecodeTimeBounds(t *testing.T) {
	m := Default()
	zero := m.CostFromBER(0)
	if zero.DecodeTime != m.ECCMin || zero.Retries != 0 || zero.Uncorrectable {
		t.Errorf("zero-error decode: %+v", zero)
	}
	// Exactly at capability: full ECCMax, no retry.
	atCap := m.CostFromBER(float64(m.CorrectableBits) / float64(m.CodewordDataBits))
	if atCap.DecodeTime != m.ECCMax || atCap.Retries != 0 {
		t.Errorf("at-capability decode: %+v", atCap)
	}
}

func TestDecodeTimeMonotonic(t *testing.T) {
	m := Default()
	prev := time.Duration(-1)
	for e := 0.0; e <= float64(m.CorrectableBits); e += 0.5 {
		got := m.CostFromBER(e / float64(m.CodewordDataBits)).DecodeTime
		if got < prev {
			t.Fatalf("decode time decreased at %g errors: %v < %v", e, got, prev)
		}
		prev = got
	}
}

func TestReadRetryPath(t *testing.T) {
	m := Default()
	// 60 expected errors > 40 correctable: one retry halves to 30.
	ber := 60.0 / float64(m.CodewordDataBits)
	c := m.CostFromBER(ber)
	if c.Retries != 1 || c.Uncorrectable {
		t.Fatalf("60 errors: retries=%d uncorrectable=%v", c.Retries, c.Uncorrectable)
	}
	if c.DecodeTime <= m.ECCMax {
		t.Error("retry path must cost more than a single max decode")
	}
	// Hopeless error count: exhausts retries.
	hopeless := m.CostFromBER(1e6 / float64(m.CodewordDataBits))
	if !hopeless.Uncorrectable || hopeless.Retries != m.MaxRetries {
		t.Errorf("hopeless read: %+v", hopeless)
	}
}

func TestSubpageReadCostUsesDisturb(t *testing.T) {
	m := Default()
	clean := flash.Subpage{State: flash.SubValid}
	dirty := validSubpage(true, 3, 0, 0)
	cc := m.SubpageReadCost(4000, &clean)
	cd := m.SubpageReadCost(4000, &dirty)
	if cd.BER <= cc.BER {
		t.Error("disturbed subpage must have higher BER")
	}
	if cd.DecodeTime < cc.DecodeTime {
		t.Error("disturbed subpage must not decode faster")
	}
}

func TestCurveShape(t *testing.T) {
	m := Default()
	pes := []int{1000, 2000, 4000, 8000}
	pts := m.Curve(pes)
	if len(pts) != len(pes) {
		t.Fatalf("curve length %d", len(pts))
	}
	for i, p := range pts {
		if p.PE != pes[i] {
			t.Errorf("point %d PE = %d", i, p.PE)
		}
		if p.Partial <= p.Conventional {
			t.Errorf("PE %d: partial (%g) must exceed conventional (%g)", p.PE, p.Partial, p.Conventional)
		}
		if p.PartDec < p.ConvDecode {
			t.Errorf("PE %d: partial decode faster than conventional", p.PE)
		}
		if i > 0 && p.Conventional <= pts[i-1].Conventional {
			t.Errorf("curve not increasing at PE %d", p.PE)
		}
	}
	// Fig. 2 shows the absolute gap widening with wear.
	gapFirst := pts[0].Partial - pts[0].Conventional
	gapLast := pts[len(pts)-1].Partial - pts[len(pts)-1].Conventional
	if gapLast <= gapFirst {
		t.Errorf("partial/conventional gap must widen with PE: %g -> %g", gapFirst, gapLast)
	}
}
