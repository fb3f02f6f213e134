package fleetops

import (
	"strconv"
	"time"

	"penelope/internal/obs"
)

// Instruments is fleetops' optional observability bundle: tick and
// delivery latency histograms, a throughput gauge, bus fan-out latency,
// and one-shot spans per tick/delivery. Nil (the default) makes every
// hook a no-op, so schedulers, buses and deliverers built without it —
// tests, benchmarks — pay nothing.
type Instruments struct {
	TickSeconds       *obs.Histogram
	ChipEpochsPerSec  *obs.Gauge
	BusPublishSeconds *obs.Histogram
	AttemptSeconds    *obs.Histogram
	Tracer            *obs.Tracer
}

// NewInstruments registers fleetops' metric families on reg and
// returns the bundle. Tick spans record under component "fleet",
// delivery attempts under "alert".
func NewInstruments(reg *obs.Registry, tracer *obs.Tracer) *Instruments {
	return &Instruments{
		TickSeconds: reg.Histogram("penelope_fleet_tick_seconds",
			"Duration of fleet scheduler ticks (engine build + replay to the cursor + epoch steps).", nil),
		ChipEpochsPerSec: reg.Gauge("penelope_fleet_chip_epochs_per_second",
			"Aging throughput of the most recent successful tick: population size times epochs advanced, divided by tick duration."),
		BusPublishSeconds: reg.Histogram("penelope_bus_publish_seconds",
			"Latency of one bus publish: marshal, history ring append, subscriber fan-out.", nil),
		AttemptSeconds: reg.Histogram("penelope_alert_attempt_seconds",
			"Latency of individual alert sink delivery attempts (webhook POST round-trips).", nil),
		Tracer: tracer,
	}
}

// observeTick records one scheduler tick: duration histogram, a fleet
// span, and — on success — the chip-epochs/s throughput gauge.
func (in *Instruments) observeTick(fleet string, start time.Time, epochs, population int, err error) {
	if in == nil {
		return
	}
	d := time.Since(start)
	in.TickSeconds.ObserveDuration(d)
	attrs := map[string]string{"fleet": fleet, "epochs": strconv.Itoa(epochs)}
	if err != nil {
		attrs["error"] = err.Error()
	} else if secs := d.Seconds(); secs > 0 && epochs > 0 {
		in.ChipEpochsPerSec.Set(float64(epochs) * float64(population) / secs)
	}
	in.Tracer.Record("fleet", "tick", start, d, attrs)
}

// observeDeliver records one alert delivery attempt.
func (in *Instruments) observeDeliver(alertID string, attempt int, start time.Time, err error) {
	if in == nil {
		return
	}
	d := time.Since(start)
	in.AttemptSeconds.ObserveDuration(d)
	attrs := map[string]string{"alert": alertID, "attempt": strconv.Itoa(attempt)}
	if err != nil {
		attrs["error"] = err.Error()
	}
	in.Tracer.Record("alert", "deliver", start, d, attrs)
}
