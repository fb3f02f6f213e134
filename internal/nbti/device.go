package nbti

import "math"

// Device simulates the interface-trap dynamics of a single PMOS
// transistor under an arbitrary stress/relax schedule. It implements the
// fractional model the paper describes in §2.2: during a stress interval
// traps are created in proportion to the remaining Si-H bonds; during a
// relax interval traps are annealed in proportion to the current trap
// count. Both processes integrate exactly over an interval, so long
// intervals need not be subdivided.
type Device struct {
	params Params
	nit    float64 // current interface-trap density, in units of N0
	time   float64 // total simulated time
}

// NewDevice returns a fresh (undegraded) device governed by params.
func NewDevice(params Params) *Device {
	if !params.Valid() {
		panic("nbti: invalid parameters")
	}
	return &Device{params: params}
}

// NIT returns the current interface-trap density as a fraction of N0.
func (d *Device) NIT() float64 { return d.nit / d.params.N0 }

// VTHShift returns the current relative threshold-voltage shift,
// proportional to NIT (Figure 1 caption).
func (d *Device) VTHShift() float64 {
	return d.params.MaxVTHShift * d.NIT()
}

// Time returns total simulated time.
func (d *Device) Time() float64 { return d.time }

// Stress ages the device for dt time units with the gate at "0".
// dN/dt = KStress·(N0 - N) integrates to
// N(t+dt) = N0 - (N0-N)·exp(-KStress·dt): creation slows down as bonds
// are exhausted, exactly the saturating behaviour of Figure 1.
func (d *Device) Stress(dt float64) {
	if dt < 0 {
		panic("nbti: negative stress interval")
	}
	n0 := d.params.N0
	d.nit = n0 - (n0-d.nit)*math.Exp(-d.params.KStress*dt)
	d.time += dt
}

// Relax heals the device for dt time units with the gate at "1".
// dN/dt = -KRelax·N integrates to N(t+dt) = N·exp(-KRelax·dt): recovery
// is fastest when many traps exist and full recovery needs infinite time
// (§2.2).
func (d *Device) Relax(dt float64) {
	if dt < 0 {
		panic("nbti: negative relax interval")
	}
	d.nit *= math.Exp(-d.params.KRelax * dt)
	d.time += dt
}

// TracePoint is one sample of a degradation trace.
type TracePoint struct {
	Time float64
	NIT  float64 // fraction of N0
	VTH  float64 // relative VTH shift
}

// SquareWave ages a fresh device with an alternating stress/relax square
// wave — stress for duty·period, then relax for (1-duty)·period — over
// the given number of periods, sampling the trap density at every phase
// boundary. The result regenerates Figure 1: saw-tooth NIT with a rising
// envelope that converges to the duty-cycle equilibrium.
func SquareWave(params Params, period, duty float64, periods int) []TracePoint {
	if period <= 0 || duty < 0 || duty > 1 || periods < 1 {
		panic("nbti: invalid square-wave shape")
	}
	dev := NewDevice(params)
	out := make([]TracePoint, 0, 2*periods+1)
	sample := func() {
		out = append(out, TracePoint{Time: dev.Time(), NIT: dev.NIT(), VTH: dev.VTHShift()})
	}
	sample()
	for i := 0; i < periods; i++ {
		dev.Stress(period * duty)
		sample()
		dev.Relax(period * (1 - duty))
		sample()
	}
	return out
}
