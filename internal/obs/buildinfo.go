package obs

import (
	"runtime"
	"runtime/debug"
)

// Label is one constant name/value pair attached to a scalar family at
// registration time — the *_info idiom, where the value is a constant 1
// and the payload rides in the labels.
type Label struct {
	Name  string
	Value string
}

// GaugeConst registers a gauge with constant labels and a fixed value.
// Labels render on the sample line with full exposition escaping, so
// values may contain backslashes, quotes and newlines.
func (r *Registry) GaugeConst(name, help string, labels []Label, v float64) {
	for _, l := range labels {
		if !validName(l.Name) {
			panic("obs: invalid label name " + l.Name)
		}
	}
	r.register(&family{name: name, help: help, kind: kindGauge,
		labels: append([]Label(nil), labels...), gaugeFn: func() float64 { return v }})
}

// BuildInfo identifies the running binary.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
}

// ReadBuildInfo fills BuildInfo from the binary's embedded build
// metadata: the main module version, the toolchain version, and the
// stamped VCS revision when the binary was built inside a checkout.
func ReadBuildInfo() BuildInfo {
	bi := BuildInfo{Version: "unknown", GoVersion: runtime.Version(), Revision: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.Main.Version != "" {
			bi.Version = info.Main.Version
		}
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				bi.Revision = s.Value
			}
		}
	}
	return bi
}

// RegisterBuildInfo exposes the binary's identity as the constant-1
// penelope_build_info gauge.
func RegisterBuildInfo(r *Registry, bi BuildInfo) {
	r.GaugeConst("penelope_build_info",
		"Build identity of the running binary; the value is a constant 1.",
		[]Label{
			{Name: "goversion", Value: bi.GoVersion},
			{Name: "revision", Value: bi.Revision},
			{Name: "version", Value: bi.Version},
		}, 1)
}
