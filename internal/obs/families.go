package obs

// FamilyKind is the exposition type of a family, for visitors.
type FamilyKind int

const (
	KindCounter FamilyKind = iota
	KindGauge
	KindHistogram
)

// FamilyInfo describes one registered family to a Families visitor.
// Exactly one of the value accessors is set per kind: ReadCounter for
// counters, ReadGauge or GaugeCells for gauges, Hist or Vec for
// histograms. VecLabel names the label of a Vec or GaugeCells family.
type FamilyInfo struct {
	Name string
	Help string
	Kind FamilyKind

	ReadCounter func() uint64
	ReadGauge   func() float64
	GaugeCells  []GaugeCell // shared; callers must not modify it
	Hist        *Histogram
	VecLabel    string
	Vec         *HistogramVec
}

// Families calls fn for every registered family in name order. It is
// the binding hook for samplers (the embedded tsdb): call it once,
// cache the accessors, and re-call only when Version moves. The
// accessors themselves are safe for concurrent use and never allocate.
func (r *Registry) Families(fn func(FamilyInfo)) {
	for _, f := range r.sorted() {
		info := FamilyInfo{Name: f.name, Help: f.help}
		switch f.kind {
		case kindCounter:
			info.Kind = KindCounter
			if f.counter != nil {
				info.ReadCounter = f.counter.Value
			} else {
				info.ReadCounter = f.counterFn
			}
		case kindGauge:
			info.Kind = KindGauge
			switch {
			case f.cells != nil:
				info.VecLabel = f.cellLabel
				info.GaugeCells = f.cells
			case f.gauge != nil:
				info.ReadGauge = f.gauge.Value
			default:
				info.ReadGauge = f.gaugeFn
			}
		case kindHistogram:
			info.Kind = KindHistogram
			info.Hist = f.hist
			if f.vec != nil {
				info.VecLabel = f.vec.label
				info.Vec = f.vec
			}
		}
		fn(info)
	}
}
