package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzPVSolve: every POST /api/v1/pv/solve body gets 200, 400 or 422 with
// a JSON body, never a panic, and a 200 body decodes into the response's
// float64 fields, which only finite JSON numbers do.
func FuzzPVSolve(f *testing.F) {
	for _, irr := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
		f.Add(fmt.Sprintf(`{"irradiance":%g,"points":16}`, irr))
	}
	for body := range pvSolveRejects {
		f.Add(body)
	}
	// A second document is trailing data (400); trailing whitespace is not.
	f.Add(`{"irradiance":0.5}{"irradiance":-1}`)
	f.Add(`{"irradiance":0.5} xx`)
	f.Add("{\"irradiance\":0.5,\"points\":16} \n")
	for _, calibration := range []string{
		`"ideality_factor":1e-300`, `"ideality_factor":1e300`, `"series_cells":1000000000`,
		`"shunt_resistance_ohm":1e-300`, `"saturation_current_a":1e300`,
	} {
		f.Add(`{"irradiance":0.5,"points":16,` + calibration + `}`)
	}
	h := New(Config{}).Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/pv/solve", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("body %q: status %d with a body that is not JSON: %q", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp struct {
			VocV  float64 `json:"voc_v"`
			IscA  float64 `json:"isc_a"`
			MPPV  float64 `json:"mpp_v"`
			MPPW  float64 `json:"mpp_w"`
			Curve []struct{ V, I, P float64 }
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: 200 answer does not decode: %v", body, err)
		}
	})
}
