package stats

// Utilization counts the requests a set of ports served and the ones
// that found every port taken. The paper reports the resulting port
// availability for the register file and the scheduler (92%/86%/77%,
// §4.4–4.5). The zero value is ready to use.
type Utilization struct {
	requests uint64 // requests issued
	denied   uint64 // requests that found no free unit
}

// Reset clears all recorded requests.
func (u *Utilization) Reset() { *u = Utilization{} }

// Use records a request that a free unit served.
func (u *Utilization) Use() { u.requests++ }

// Deny records a request that could not be served (no unit free).
func (u *Utilization) Deny() { u.requests++; u.denied++ }

// Availability returns the fraction of requests that found a unit free.
// Returns 1 when no requests were recorded.
func (u *Utilization) Availability() float64 {
	if u.requests == 0 {
		return 1
	}
	return 1 - float64(u.denied)/float64(u.requests)
}

// Occupancy tracks the average fill level of a structure with a fixed
// number of entries, sampled as (entries-in-use, dt) intervals.
type Occupancy struct {
	capacity  int
	entryTime uint64 // Σ occupied·dt
	total     uint64 // Σ dt
}

// NewOccupancy returns an occupancy tracker for a structure of the given
// capacity. Capacity must be positive.
func NewOccupancy(capacity int) *Occupancy {
	if capacity <= 0 {
		panic("stats: Occupancy needs positive capacity")
	}
	return &Occupancy{capacity: capacity}
}

// Reset clears all accumulated time.
func (o *Occupancy) Reset() { *o = Occupancy{capacity: o.capacity} }

// Observe records that occupied entries were in use for dt cycles.
func (o *Occupancy) Observe(occupied int, dt uint64) {
	if occupied < 0 || occupied > o.capacity {
		panic("stats: occupancy outside [0, capacity]")
	}
	o.entryTime += uint64(occupied) * dt
	o.total += dt
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
