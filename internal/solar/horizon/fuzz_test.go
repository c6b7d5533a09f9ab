package horizon

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// FuzzRaiseNeverLowersHorizon pins the march's monotonicity over
// small random DSMs: raising one cell by a positive amount only adds
// obstruction, so no sector tangent of any other cell may drop and no
// other cell's sky view factor may rise. The raised cell itself is
// excluded because its own eye height moves with it. dsm.AtMetres
// samples the nearest cell and float subtraction, division and
// summation are monotone, so the property is exact, not a tolerance.
// Every map is built at workers 1 and 4, which must agree bit for bit.
func FuzzRaiseNeverLowersHorizon(f *testing.F) {
	f.Add(uint8(6), uint8(5), []byte{0, 40, 200, 10, 90}, uint16(7), uint8(30))
	f.Add(uint8(11), uint8(11), []byte{255, 0, 0, 3}, uint16(77), uint8(255))
	f.Add(uint8(8), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(13), uint8(0))
	f.Add(uint8(0), uint8(0), []byte{}, uint16(0), uint8(0))
	f.Add(uint8(9), uint8(9), []byte{}, uint16(40), uint8(3))
	f.Fuzz(func(t *testing.T, w8, h8 uint8, heights []byte, at uint16, raise uint8) {
		w, h := 1+int(w8%12), 1+int(h8%12)
		r, err := dsm.NewRaster(w, h, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w*h && len(heights) > 0; i++ {
			r.Set(geom.Cell{X: i % w, Y: i / w}, float64(heights[i%len(heights)])/32)
		}
		opts := Options{Sectors: 8, MaxDistanceM: 2}
		k := int(at) % (w * h)
		raisedCell := geom.Cell{X: k % w, Y: k / w}
		raised := r.Clone()
		raised.Set(raisedCell, r.At(raisedCell)+(float64(raise)+1)/16)

		before, after := buildAt1And4(t, r, opts), buildAt1And4(t, raised, opts)
		for idx := 0; idx < w*h; idx++ {
			if idx == k {
				continue
			}
			tb, ta := before.TanRow(idx), after.TanRow(idx)
			for s := range tb {
				if ta[s] < tb[s] {
					t.Fatalf("raising cell %v lowered cell %d sector %d tangent: %v -> %v",
						raisedCell, idx, s, tb[s], ta[s])
				}
			}
			if after.SVFIdx(idx) > before.SVFIdx(idx) {
				t.Fatalf("raising cell %v raised cell %d SVF: %v -> %v",
					raisedCell, idx, before.SVFIdx(idx), after.SVFIdx(idx))
			}
		}
	})
}

// buildAt1And4 builds the whole-raster map serially and on four
// workers and requires the two to be bit-identical.
func buildAt1And4(t *testing.T, r *dsm.Raster, opts Options) *Map {
	t.Helper()
	regions := []geom.Rect{r.Bounds()}
	serial, err := BuildRegions(r, regions, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildRegions(r, regions, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	ss, ps := serial.Snapshot(), par.Snapshot()
	if ss.Region != ps.Region || ss.Sectors != ps.Sectors {
		t.Fatalf("workers 1 vs 4: shape %v/%d vs %v/%d", ss.Region, ss.Sectors, ps.Region, ps.Sectors)
	}
	for i := range ss.Tan {
		if math.Float32bits(ss.Tan[i]) != math.Float32bits(ps.Tan[i]) {
			t.Fatalf("workers 1 vs 4: tan[%d] %v vs %v", i, ss.Tan[i], ps.Tan[i])
		}
	}
	for i := range ss.SVF {
		if math.Float32bits(ss.SVF[i]) != math.Float32bits(ps.SVF[i]) {
			t.Fatalf("workers 1 vs 4: svf[%d] %v vs %v", i, ss.SVF[i], ps.SVF[i])
		}
	}
	return serial
}

// FuzzBoundedMarchMatchesFullMarch pins the exactness of the bounded
// march: every tangent and sky view factor BuildRegions produces must
// equal, bit for bit, fullMarchCell's, which reads every sample of
// every ray. The DSMs are small (≤16×16) with heights that are mostly
// plausible roofs and walls but may be any float64 bit pattern —
// negatives, huge values, ±Inf and NaN — on a window at any origin,
// with random cell sizes (from 2^-64 to 2^63 m in the wide mode),
// sector counts, steps, near fields, reaches and eye heights, built at
// workers 1 and 4. Options whose schedule exceeds maxSamples must be
// rejected instead.
func FuzzBoundedMarchMatchesFullMarch(f *testing.F) {
	nan, inf := math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1))
	raw := func(zs ...uint64) []byte {
		var b []byte
		for _, z := range zs {
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint64(b, z)
		}
		return b
	}
	f.Add(uint8(9), uint8(7), []byte{1, 2, 200, 40, 5, 6, 90, 33, 33, 33, 250}, int32(0), int32(0), uint16(199), []byte{4, 20, 3, 6, 5, 3, 0})
	f.Add(uint8(15), uint8(15), []byte{9, 9, 9, 9, 255, 9, 9, 9, 255, 255, 9}, int32(-1350), int32(270), uint16(199), []byte{60, 39, 31, 23, 31, 0, 0})
	f.Add(uint8(5), uint8(6), raw(nan, inf, inf|1<<63, math.Float64bits(-3.5), math.Float64bits(1e300), 1<<63), int32(-3), int32(7), uint16(49), []byte{8, 30, 1, 10, 12, 64, 0})
	f.Add(uint8(4), uint8(4), raw(math.Float64bits(-2), nan), int32(5), int32(-9), uint16(0), []byte{0, 255, 0, 255, 0, 1, 1, 128})
	f.Add(uint8(7), uint8(3), []byte{120, 3, 4}, int32(1e9), int32(-2e9), uint16(65535), []byte{12, 255, 7, 0, 2, 9, 1, 126})
	f.Add(uint8(3), uint8(3), []byte{8}, int32(0), int32(0), uint16(0), []byte{0, 0, 255, 0, 0, 0, 1, 0})
	f.Add(uint8(6), uint8(6), []byte{40, 200, 7, 90}, int32(-12), int32(3), uint16(9), []byte{5, 39, 2, 8, 3, 2, 1, 0x90})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, heights []byte, ox, oy int32, cell uint16, knobs []byte) {
		knob := func(i int) byte {
			if i < len(knobs) {
				return knobs[i]
			}
			return 0
		}
		w, h := 1+int(w8%16), 1+int(h8%16)
		cs, unit := float64(1+int(cell))/1000, float64(1+int(cell))/1000
		if knob(6)&1 == 1 { // wide mode: any cell size, steps in metres
			cs, unit = math.Ldexp(1+float64(cell)/65536, int(int8(knob(7)))/2), 0.05
		}
		r, err := dsm.NewRaster(w, h, cs)
		if err != nil {
			t.Fatal(err)
		}
		r.SetOrigin(geom.Cell{X: int(ox), Y: int(oy)})
		for i, k := 0, 0; i < w*h && k < len(heights); i++ {
			tag := heights[k]
			k++
			z := float64(tag)/16 - 2
			if tag%4 == 0 && k+8 <= len(heights) {
				z = math.Float64frombits(binary.LittleEndian.Uint64(heights[k:]))
				k += 8
			}
			r.Set(geom.Cell{X: i % w, Y: i / w}, z)
		}
		opts := Options{
			Sectors:      4 + int(knob(0)%13),
			MaxDistanceM: unit * float64(1+knob(1)%40),
			NearStepM:    unit * (0.1 + float64(knob(2)%32)/16),
			NearFieldM:   unit * float64(knob(3)%24) / 2,
			FarStepM:     unit * (0.1 + float64(knob(4)%32)/8),
			EyeHeightM:   float64(knob(5)) / 64,
		}
		if knob(1) == 255 { // defaults: 80 m reach, half-cell near step
			opts.MaxDistanceM, opts.NearStepM = 0, 0
		}
		ref := opts.Resolved(cs)
		n := 0
		for d := ref.NearStepM; d <= ref.MaxDistanceM && n <= maxSamples; n++ {
			if d < ref.NearFieldM {
				d += ref.NearStepM
			} else {
				d += ref.FarStepM
			}
		}
		if n > maxSamples {
			if _, err := BuildRegions(r, []geom.Rect{r.Bounds()}, opts, 1); err == nil {
				t.Fatalf("a schedule of more than %d samples must be rejected", maxSamples)
			}
			return
		}
		got := buildAt1And4(t, r, opts).Snapshot()
		want := make([]float32, ref.Sectors)
		for idx := 0; idx < w*h; idx++ {
			svf := fullMarchCell(r, geom.Cell{X: idx % w, Y: idx / w}, ref, want)
			for s, tan := range want {
				if g := got.Tan[idx*ref.Sectors+s]; math.Float32bits(g) != math.Float32bits(tan) {
					t.Fatalf("cell %d sector %d: bounded march %v, full march %v", idx, s, g, tan)
				}
			}
			if math.Float32bits(got.SVF[idx]) != math.Float32bits(svf) {
				t.Fatalf("cell %d: bounded SVF %v, full SVF %v", idx, got.SVF[idx], svf)
			}
		}
	})
}

// fullMarchCell is the reference march: it reads every sample of every
// ray, accumulating the distance per ray, and returns the cell's sky
// view factor after writing its tangents into tan. opts are resolved.
func fullMarchCell(r *dsm.Raster, cell geom.Cell, opts Options, tan []float32) float32 {
	x0, y0 := r.CellCenterMetres(cell)
	z0 := r.At(cell) + opts.EyeHeightM
	var svfSum float64
	for s := 0; s < opts.Sectors; s++ {
		az := (float64(s) + 0.5) * 2 * math.Pi / float64(opts.Sectors)
		dx, dy := math.Sin(az), -math.Cos(az)
		maxTan := 0.0
		for d := opts.NearStepM; d <= opts.MaxDistanceM; {
			z := r.AtMetres(x0+dx*d, y0+dy*d)
			if t := (z - z0) / d; t > maxTan {
				maxTan = t
			}
			if d < opts.NearFieldM {
				d += opts.NearStepM
			} else {
				d += opts.FarStepM
			}
		}
		tan[s] = float32(maxTan)
		svfSum += 1 / (1 + maxTan*maxTan)
	}
	return float32(svfSum / float64(opts.Sectors))
}
