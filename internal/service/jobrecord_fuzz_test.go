package service

import (
	"testing"

	"penelope/internal/experiments"
)

// FuzzRecoverJobRecord feeds the boot-time job record decoder arbitrary
// names and bytes, as recoverInterrupted reads them from disk. It must
// never panic, and every record it accepts must carry its storage name
// as its key and options that pass Options.Check: anything else would be
// resubmitted on every boot, or crash it.
func FuzzRecoverJobRecord(f *testing.F) {
	o := experiments.Options{Population: 500, FleetSeed: 3}
	key := ResultKey("lifetime", o.Normalized())
	written, err := encodeJobRecord(key, "lifetime", o.Normalized(), "alice")
	if err != nil {
		f.Fatal(err)
	}
	if _, got, err := decodeJobRecord(key, written); err != nil || got != o.Normalized() {
		f.Fatalf("a record submit writes does not decode to its options: %+v, %v", got, err)
	}
	f.Add(key, written)
	f.Add(key, written[:len(written)/2])
	f.Add(key, []byte(`{"key":"`+key+`","experiment":"lifetime","options":{"population":"many"}}`))
	f.Add(key, []byte(`{"key":"`+key+`","experiment":"lifetime","options":[1,2}`))
	f.Add("other-key", written)
	f.Add("k", []byte(`{"key":"k","experiment":"nope","options":{}}`))
	f.Add("k", []byte(`{"key":"k","experiment":"fig6","options":{"trace_length":1099511627776}}`))
	f.Add("k", []byte(`{"key":"k","experiment":"lifetime","options":{"population":1000001}}`))
	f.Add("k", []byte(`{"key":"k","experiment":"lifetime","options":{"population":1000000,"years":2800,"epoch_days":1}}`))
	f.Add("k", []byte(`{"key":"k","experiment":"lifetime","options":null}`))
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		rec, o, err := decodeJobRecord(name, data)
		if err != nil {
			return
		}
		if rec.Key != name {
			t.Fatalf("accepted a record keyed %q under %q", rec.Key, name)
		}
		if err := o.Check(); err != nil {
			t.Fatalf("accepted options that fail Check: %v", err)
		}
	})
}
