package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"penelope/internal/lifetime"
)

// pairImage returns the fleet pair checkpoint of o's two engines after
// `steps` epochs, with the configs it was built from.
func pairImage(tb testing.TB, o Options, steps int) ([]byte, lifetime.Config, lifetime.Config) {
	tb.Helper()
	o = o.Normalized()
	duties := o.fleetDuties()
	cfgB, cfgP := o.fleetConfig(duties, false), o.fleetConfig(duties, true)
	run, err := lifetime.Open(nil, cfgB, cfgP)
	if err != nil {
		tb.Fatal(err)
	}
	run.Workers = 1
	run.Run(context.Background(), steps, 0)
	snaps, err := run.Snapshots()
	if err != nil {
		tb.Fatal(err)
	}
	return encodeFleetPair(snaps), cfgB, cfgP
}

// FuzzDecodeFleetPair throws truncated, mismatched and arbitrary bytes
// at the job checkpoint decoder. It must never panic, every rejection
// must be ErrBadCheckpoint (the service quarantines on it), and an
// accepted pair must carry exactly the requested engine configs, so a
// checkpoint never answers for different options.
func FuzzDecodeFleetPair(f *testing.F) {
	o := Options{TraceLength: 900, TraceStride: 531, Population: 2, Years: 0.2, EpochDays: 45, FleetSeed: 3}
	pair, cfgB, cfgP := pairImage(f, o, 2)
	f.Add(pair)
	for _, n := range []int{0, 5, len(fleetPairMagic), len(fleetPairMagic) + 8, len(pair) / 2, len(pair) - 1} {
		f.Add(pair[:n])
	}
	for _, other := range []func(*Options){
		func(o *Options) { o.Population++ },
		func(o *Options) { o.FleetSeed++ },
		func(o *Options) { o.AttackYears = 0.1 },
	} {
		mismatched := o
		other(&mismatched)
		data, _, _ := pairImage(f, mismatched, 1)
		f.Add(data)
	}
	// The right engines in the wrong order.
	body := pair[len(fleetPairMagic):]
	nB := 8 + binary.LittleEndian.Uint64(body)
	swapped := append([]byte(fleetPairMagic), body[nB:]...)
	f.Add(append(swapped, body[:nB]...))
	// A valid pair with junk after the second snapshot.
	f.Add(append(append([]byte(nil), pair...), "trailing junk"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		snaps, err := decodeFleetPair(data)
		var run *lifetime.Driver
		if err == nil {
			run, err = lifetime.Open(snaps, cfgB, cfgP)
		}
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("rejection %v is not ErrBadCheckpoint", err)
			}
			return
		}
		if !reflect.DeepEqual(run.Engines[0].Config(), cfgB) || !reflect.DeepEqual(run.Engines[1].Config(), cfgP) {
			t.Fatal("accepted a pair whose engine configs differ from the requested ones")
		}
		// An accepted image is canonical: it re-encodes byte for byte.
		if again := encodeFleetPair(snaps); !bytes.Equal(again, data) {
			t.Fatalf("accepted a %d-byte image that re-encodes to %d bytes", len(data), len(again))
		}
	})
}
