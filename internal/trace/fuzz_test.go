package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL: reading never panics, and an accepted trace passes
// ValidateAll and survives WriteJSONL -> ReadJSONL with its bytes stable.
func FuzzReadJSONL(f *testing.F) {
	rec := NewRecorder()
	Instant(rec, "sched.bypass", 0.016, "proposed", Args{"vcap_v": 0.61, "ok": true})
	Begin(rec, "mppt.window", 0.002, "", nil)
	End(rec, "mppt.window", 0.004, "", Args{"nested": map[string]any{"a": []any{1.0, "x", nil}}})
	WallSpan(rec, "runner.job", 0, 0.25, "fig11b", nil)
	var seed bytes.Buffer
	if err := WriteJSONL(&seed, rec.Events()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(``)
	f.Add(`{"seq":3,"clock":"sim","t":0,"kind":"k","ph":"i","args":{}}`)
	f.Add(`{"seq":1,"clock":"sim","t":0,"kind":"k","ph":"i"}` + "\n" + `{"seq":0,"clock":"sim","t":0,"kind":"k","ph":"i"}`)
	f.Add(`{"seq":0,"clock":"wall","t":1e308,"kind":"k","ph":"X","unknown":[1]} {"seq":9,"clock":"sim","t":0,"kind":"☃","ph":"C"}`)
	f.Add(`{"seq":-1,"clock":"sim","t":0,"kind":"k","ph":"i"}`)
	f.Add(`nope`)
	f.Fuzz(func(t *testing.T, data string) {
		events, err := ReadJSONL(strings.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if err := ValidateAll(events); err != nil {
			t.Fatalf("accepted trace fails ValidateAll: %v\ninput: %q", err, data)
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, events); err != nil {
			t.Fatalf("write accepted trace: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written trace failed: %v\njsonl: %s", err, first.Bytes())
		}
		if len(back) != len(events) {
			t.Fatalf("round trip kept %d of %d events", len(back), len(events))
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, back); err != nil {
			t.Fatalf("write re-read trace: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the bytes\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
