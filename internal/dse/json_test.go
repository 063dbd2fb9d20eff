package dse

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func TestPointToJSONCanonicalizesOptions(t *testing.T) {
	// A caller-built non-canonical point must emit option fields
	// consistent with its own hash: an uncached arch shows no cache
	// geometry or accelerator knobs regardless of what the caller left
	// in the raw Options.
	raw := Config{Arch: sim.Baseline, Curve: "P-192", Opt: sim.Options{
		CacheBytes: 1 << 10, Prefetch: true, BillieDigit: 5, DoubleBuffer: true, MonteWidth: 16,
	}}
	res, err := sim.Run(raw.Arch, raw.Curve, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	j := newPoint(raw, res).ToJSON()
	canon := newPoint(raw.Canonical(), res).ToJSON()
	rawBytes, _ := json.Marshal(j)
	canonBytes, _ := json.Marshal(canon)
	if !bytes.Equal(rawBytes, canonBytes) {
		t.Errorf("non-canonical point wire form diverges:\n  raw:   %s\n  canon: %s", rawBytes, canonBytes)
	}
	if j.CacheBytes != 0 || j.Prefetch || j.BillieDigit != 0 || j.DoubleBuffer || j.MonteWidth != 0 {
		t.Errorf("uncached-arch point leaks irrelevant knobs: %+v", j)
	}
	if j.Hash != raw.Hash() {
		t.Errorf("wire hash %s != config hash %s", j.Hash, raw.Hash())
	}
}

// PointsJSON renders a bare point list (e.g. a frontier) as indented
// JSON.
func PointsJSON(points []Point) ([]byte, error) {
	out := make([]PointJSON, 0, len(points))
	for _, p := range points {
		out = append(out, p.ToJSON())
	}
	return json.MarshalIndent(out, "", "  ")
}
