package fault_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
)

// FuzzParsePlan: parsing never panics, and an accepted plan validates,
// survives a JSON round trip unchanged, and resolves its brownouts over a
// 1 s horizon within MaxWindows — or rejects them with ErrBadPlan — but
// never hangs or allocates without bound.
func FuzzParsePlan(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"seed":7,"brownouts":[{"at_s":0.05,"duration_s":0.02}],` +
		`"random_brownouts":{"count":2,"mean_duration_s":0.01,"depth":0.1},` +
		`"nvm":{"fail_every_n":2,"restore_bitrot_prob":0.2}}`)
	f.Add(`{"brownouts":[{"at_s":0.1,"duration_s":0.02,"every_s":0.25,"depth":0.5}]}`)
	f.Add(`{"brownouts":[{"at_s":0.01,"duration_s":1e-20,"every_s":1e-20}]}`)
	f.Add(`{"brownouts":[{"at_s":0,"duration_s":1e-6,"every_s":1.52587890625e-05}]}`)
	f.Add(`{"random_brownouts":{"count":2000000000,"mean_duration_s":0.01}}`)
	f.Add(`{"random_brownouts":{"count":65536,"mean_duration_s":1e308}}`)
	f.Add(`{"nvm":{"torn_write_prob":1,"fail_every_n":1}}`)
	f.Add(`{"serve":{"latency_ms":5,"latency_jitter_ms":2,"error_prob":0.1,"error_status":503,` +
		`"render_error_prob":0.5,"gate_hold_ms":3}}`)
	f.Add(`{"brownouts":[],"nvm":{},"serve":{}}`)
	f.Add(`{"seed":1} trailing garbage`)
	f.Add(`{"seed":1}{"seed":2}`)
	f.Add(`[1,2,3]`)
	f.Fuzz(func(t *testing.T, data string) {
		plan, err := fault.ParsePlan([]byte(data))
		if err != nil {
			if !errors.Is(err, fault.ErrBadPlan) {
				t.Fatalf("rejection is not ErrBadPlan: %v\ninput: %q", err, data)
			}
			return
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v\ninput: %q", err, data)
		}
		out, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("marshal accepted plan: %v", err)
		}
		back, err := fault.ParsePlan(out)
		if err != nil {
			t.Fatalf("re-marshalled plan rejected: %v\njson: %s\ninput: %q", err, out, data)
		}
		// An empty brownout list marshals away; it is the same plan as none.
		if len(plan.Brownouts) == 0 {
			plan.Brownouts = nil
		}
		if !reflect.DeepEqual(back, plan) {
			t.Fatalf("round trip changed the plan\nin:  %+v\nout: %+v", plan, back)
		}
		b, err := fault.New(plan, "fuzz").Brownouts(1)
		if err != nil {
			if !errors.Is(err, fault.ErrBadPlan) {
				t.Fatalf("Brownouts error is not ErrBadPlan: %v", err)
			}
			return
		}
		if n := len(b.Windows()); n > fault.MaxWindows {
			t.Fatalf("resolved %d windows, bound is %d", n, fault.MaxWindows)
		}
	})
}
