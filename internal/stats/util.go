package stats

// Utilization tracks what fraction of time a resource was busy, plus how
// that time divides across a fixed number of units (ports, adders, ways).
// The paper needs this for adder utilization (11–30%, §4.3), register-file
// free time (54%/69%, §4.4), scheduler occupancy (63%, §4.5) and port
// availability (92%/86%/77%, §4.4–4.5).
type Utilization struct {
	units    int
	busy     []uint64 // busy cycles per unit
	total    uint64   // elapsed cycles
	requests uint64   // requests issued
	denied   uint64   // requests that found no free unit
}

// NewUtilization returns a tracker for n units. n must be positive.
func NewUtilization(n int) *Utilization {
	if n <= 0 {
		panic("stats: Utilization needs at least one unit")
	}
	return &Utilization{units: n, busy: make([]uint64, n)}
}

// Units returns the number of tracked units.
func (u *Utilization) Units() int { return u.units }

// Reset clears all accumulated time and requests.
func (u *Utilization) Reset() {
	clear(u.busy)
	u.total, u.requests, u.denied = 0, 0, 0
}

// Tick advances elapsed time by dt cycles.
func (u *Utilization) Tick(dt uint64) { u.total += dt }

// Use records that unit i was busy for dt cycles.
func (u *Utilization) Use(i int, dt uint64) {
	u.busy[i] += dt
	u.requests++
}

// Deny records a request that could not be served (no unit free).
func (u *Utilization) Deny() { u.requests++; u.denied++ }

// UnitUtilization returns the busy fraction of unit i.
func (u *Utilization) UnitUtilization(i int) float64 {
	if u.total == 0 {
		return 0
	}
	return float64(u.busy[i]) / float64(u.total)
}

// Average returns the mean busy fraction across units.
func (u *Utilization) Average() float64 {
	if u.total == 0 {
		return 0
	}
	var s uint64
	for _, b := range u.busy {
		s += b
	}
	return float64(s) / float64(u.total) / float64(u.units)
}

// MaxUnit returns the highest per-unit busy fraction and its index.
func (u *Utilization) MaxUnit() (frac float64, unit int) {
	for i := range u.busy {
		if f := u.UnitUtilization(i); f > frac {
			frac, unit = f, i
		}
	}
	return frac, unit
}

// MinUnit returns the lowest per-unit busy fraction and its index.
func (u *Utilization) MinUnit() (frac float64, unit int) {
	frac = 1
	if u.total == 0 {
		return 0, 0
	}
	for i := range u.busy {
		if f := u.UnitUtilization(i); f < frac {
			frac, unit = f, i
		}
	}
	return frac, unit
}

// Availability returns the fraction of requests that found a unit free.
// Returns 1 when no requests were recorded.
func (u *Utilization) Availability() float64 {
	if u.requests == 0 {
		return 1
	}
	return 1 - float64(u.denied)/float64(u.requests)
}

// Total returns elapsed cycles.
func (u *Utilization) Total() uint64 { return u.total }

// Occupancy tracks the average fill level of a structure with a fixed
// number of entries, sampled as (entries-in-use, dt) intervals.
type Occupancy struct {
	capacity  int
	entryTime uint64 // Σ occupied·dt
	total     uint64 // Σ dt
	peak      int
}

// NewOccupancy returns an occupancy tracker for a structure of the given
// capacity. Capacity must be positive.
func NewOccupancy(capacity int) *Occupancy {
	if capacity <= 0 {
		panic("stats: Occupancy needs positive capacity")
	}
	return &Occupancy{capacity: capacity}
}

// Reset clears all accumulated time and the peak.
func (o *Occupancy) Reset() { *o = Occupancy{capacity: o.capacity} }

// Observe records that occupied entries were in use for dt cycles.
func (o *Occupancy) Observe(occupied int, dt uint64) {
	if occupied < 0 || occupied > o.capacity {
		panic("stats: occupancy outside [0, capacity]")
	}
	o.entryTime += uint64(occupied) * dt
	o.total += dt
	if occupied > o.peak {
		o.peak = occupied
	}
}

// Average returns the mean occupied fraction over observed time.
func (o *Occupancy) Average() float64 {
	if o.total == 0 {
		return 0
	}
	return float64(o.entryTime) / float64(o.total) / float64(o.capacity)
}

// FreeFraction returns 1 - Average: the mean fraction of entries free.
func (o *Occupancy) FreeFraction() float64 { return 1 - o.Average() }

// Peak returns the maximum occupancy observed.
func (o *Occupancy) Peak() int { return o.peak }

// Capacity returns the structure capacity.
func (o *Occupancy) Capacity() int { return o.capacity }
